package main

import (
	"errors"
	"io"
	"log"
	"path/filepath"
	"testing"

	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

func TestTenantInputs(t *testing.T) {
	tiny, err := rpi.InputsFromConfig(netsim.TinyConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	world := filepath.Join(t.TempDir(), "tiny.rpw")
	if err := worldfile.WriteFile(world, tiny); err != nil {
		t.Fatal(err)
	}
	members := func(in rpi.Inputs) int { return len(in.World.Members) }

	cases := []struct {
		name, world, profile string
		seed                 int64
		wantErr              bool
	}{
		{name: "empty profile", profile: "", seed: 1},
		{name: "paper", profile: "paper", seed: 1},
		{name: "paper-2", profile: "paper-2", seed: 1},
		{name: "tiny", profile: "tiny", seed: 3},
		{name: "world", world: world, profile: "world"},
		{name: "world without -world", profile: "world", wantErr: true},
		{name: "world with a seed", world: world, profile: "world", seed: 7, wantErr: true},
		{name: "paper-0", profile: "paper-0", wantErr: true},
		{name: "paper-x", profile: "paper-x", wantErr: true},
		{name: "unknown", profile: "huge", wantErr: true},
	}
	got := map[string]rpi.Inputs{}
	for _, c := range cases {
		in, err := tenantInputs(c.world)(host.TenantSpec{Name: "t", Seed: c.seed, Profile: c.profile})
		if c.wantErr {
			if err == nil {
				t.Errorf("%s: want an error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if members(in) == 0 {
			t.Errorf("%s: empty world", c.name)
		}
		got[c.name] = in
	}
	if t.Failed() {
		return
	}
	if members(got["empty profile"]) != members(got["paper"]) {
		t.Error(`"" and "paper" build different worlds`)
	}
	if members(got["paper-2"]) <= members(got["paper"]) {
		t.Errorf("paper-2 has %d members, paper %d", members(got["paper-2"]), members(got["paper"]))
	}
	if w := got["world"]; w.Seed != tiny.Seed || members(w) != members(tiny) {
		t.Errorf("world profile loaded seed %d with %d members, file holds seed %d with %d",
			w.Seed, members(w), tiny.Seed, members(tiny))
	}
}

func TestPersistOpts(t *testing.T) {
	for _, fsync := range []string{"every", "interval", "off"} {
		if _, err := persistOpts(fsync, 0, 0); err != nil {
			t.Errorf("-fsync %s: %v", fsync, err)
		}
	}
	if _, err := persistOpts("sometimes", 0, 0); err == nil {
		t.Error("bad -fsync accepted")
	}
}

func TestDefaultSpec(t *testing.T) {
	for _, c := range []struct {
		seed  int64
		scale int
		world string
		want  host.TenantSpec
	}{
		{seed: 4, scale: 1, want: host.TenantSpec{Name: "d", Seed: 4, Profile: "paper"}},
		{seed: 4, scale: 8, want: host.TenantSpec{Name: "d", Seed: 4, Profile: "paper-8"}},
		{seed: 4, scale: 8, world: "w.rpw", want: host.TenantSpec{Name: "d", Profile: "world"}},
	} {
		if got := defaultSpec("d", c.seed, c.scale, c.world); got != c.want {
			t.Errorf("defaultSpec(seed %d, scale %d, world %q) = %+v, want %+v", c.seed, c.scale, c.world, got, c.want)
		}
	}
}

// TestDefaultTenantMismatchRefused: a restart with the same base
// resumes the manifest's default tenant; one with a different seed or
// profile is refused instead of replaying its log onto another world.
func TestDefaultTenantMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	open := func() *host.Host {
		t.Helper()
		h, err := host.Open(host.Config{
			Dir:    dir,
			Inputs: tenantInputs(""),
			Logger: log.New(io.Discard, "", 0),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = h.Close() })
		return h
	}
	sp := host.TenantSpec{Name: "default", Seed: 1, Profile: "paper"}
	if err := ensureTenant(open(), sp); err != nil {
		t.Fatal(err)
	}

	h := open() // restart: the manifest already holds the tenant
	if err := ensureTenant(h, sp); err != nil {
		t.Fatalf("same spec refused on restart: %v", err)
	}
	for _, bad := range []host.TenantSpec{
		{Name: "default", Seed: 2, Profile: "paper"},
		{Name: "default", Seed: 1, Profile: "paper-4"},
		{Name: "default", Profile: "world"},
	} {
		if err := ensureTenant(h, bad); err == nil {
			t.Errorf("mismatched spec %+v accepted", bad)
		}
	}
	if err := ensureTenant(h, host.TenantSpec{Name: "../x"}); !errors.Is(err, host.ErrBadTenantName) {
		t.Errorf("bad name: %v", err)
	}
}
