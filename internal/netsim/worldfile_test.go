package netsim_test

import (
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
)

// TestIfaceIndexWorldfileRoundTrip runs the interface index check over
// a world decoded from its .rpw bytes, and checks the decoded index
// answers like the generated one.
func TestIfaceIndexWorldfileRoundTrip(t *testing.T) {
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := worldfile.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := worldfile.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	netsim.CheckIfaceIndex(t, in.World)
	netsim.CheckIfaceIndex(t, out.World)
	if got, want := out.World.NumIfaces(), in.World.NumIfaces(); got != want {
		t.Fatalf("decoded world indexes %d interfaces, generated %d", got, want)
	}
	for _, m := range in.World.Members {
		want, _ := in.World.RouterOf(m.Iface)
		if got, ok := out.World.RouterOf(m.Iface); !ok || got != want {
			t.Errorf("member %v: decoded RouterOf = %d, %v; generated %d", m.Iface, got, ok, want)
		}
	}
}
