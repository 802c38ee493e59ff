package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

// worldCache holds generated worlds as .rpw files keyed on (seed,
// scale), each with a sidecar naming the fingerprint it was generated
// with. Generation is paid on first use and kept out of every timed
// phase and out of setup_s; the time it took is logged and recorded.
type worldCache struct {
	dir string
	// genSeconds accumulates generation time spent by this process.
	genSeconds float64
	logf       func(format string, args ...any)
}

// worldMeta is the sidecar of one cached world.
type worldMeta struct {
	Seed        int64   `json:"seed"`
	Scale       int     `json:"scale"`
	Fingerprint string  `json:"fingerprint"`
	GenSeconds  float64 `json:"gen_s"`
}

func (c *worldCache) path(seed int64, scale int) string {
	return filepath.Join(c.dir, fmt.Sprintf("world-s%d-x%d.rpw", seed, scale))
}

// ensure returns the path of a verified world file for (seed, scale),
// generating it when it is missing, stale or corrupt. The returned
// fingerprint is core.Fingerprint of the world.
func (c *worldCache) ensure(seed int64, scale int) (string, uint64, error) {
	path := c.path(seed, scale)
	data, err := os.ReadFile(path)
	if err == nil {
		in, err := worldfile.Decode(data)
		if err == nil {
			if fp, ok := c.fresh(in, seed, scale); ok {
				return path, fp, nil
			}
			c.logf("world cache: %s does not match seed %d scale %d; regenerating", path, seed, scale)
		} else if errors.Is(err, worldfile.ErrFingerprint) || errors.Is(err, worldfile.ErrInvalid) || errors.Is(err, worldfile.ErrVersion) {
			c.logf("world cache: %s is stale or corrupt (%v); regenerating", path, err)
		} else {
			return "", 0, fmt.Errorf("world cache: decode %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return "", 0, fmt.Errorf("world cache: %w", err)
	}
	fp, err := c.generate(seed, scale)
	return path, fp, err
}

// fresh reports whether a decoded world is the one (seed, scale) names
// and agrees with its sidecar fingerprint.
func (c *worldCache) fresh(in rpi.Inputs, seed int64, scale int) (uint64, bool) {
	want := netsim.ScaledConfig(scale)
	want.Seed = seed
	if !reflect.DeepEqual(in.World.Cfg, want) {
		return 0, false
	}
	b, err := os.ReadFile(c.path(seed, scale) + ".json")
	if err != nil {
		return 0, false
	}
	var m worldMeta
	if json.Unmarshal(b, &m) != nil {
		return 0, false
	}
	fp := core.Fingerprint(in)
	return fp, m.Seed == seed && m.Scale == scale && m.Fingerprint == fmt.Sprintf("%016x", fp)
}

func (c *worldCache) generate(seed int64, scale int) (uint64, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return 0, fmt.Errorf("world cache: %w", err)
	}
	start := time.Now()
	in, err := rpi.SyntheticInputs(seed, scale)
	if err != nil {
		return 0, err
	}
	path := c.path(seed, scale)
	if err := worldfile.WriteFile(path, in); err != nil {
		return 0, err
	}
	fp := core.Fingerprint(in)
	m := worldMeta{Seed: seed, Scale: scale, Fingerprint: fmt.Sprintf("%016x", fp), GenSeconds: time.Since(start).Seconds()}
	b, err := json.Marshal(m)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path+".json", b, 0o644); err != nil {
		return 0, fmt.Errorf("world cache: %w", err)
	}
	c.genSeconds += m.GenSeconds
	c.logf("world cache: generated seed %d scale %dx in %.2fs (not part of any timed phase)", seed, scale, m.GenSeconds)
	return fp, nil
}
