package rpi

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire-schema golden file")

// goldenIXP picks the IXP with the fewest memberships (ties broken by
// name) — a small, deterministic slice of the seed world.
func goldenIXP(rep *Report) string {
	counts := make(map[string]int)
	for k := range rep.Inferences {
		counts[k.IXP]++
	}
	best, bestN := "", -1
	for name, n := range counts {
		if bestN == -1 || n < bestN || (n == bestN && name < best) {
			best, bestN = name, n
		}
	}
	return best
}

// TestWireSchemaGolden pins the /v1 wire schema: marshalling a
// seed-world report must reproduce the committed golden byte for byte.
// Schema drift therefore fails CI until the golden is regenerated on
// purpose (go test ./pkg/rpi -run Golden -update) and the diff is
// reviewed — the API contract test for rpi-serve clients.
func TestWireSchemaGolden(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.ReportFor(context.Background(), goldenIXP(eng.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalReport(sub)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden rewritten: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("wire schema drifted from golden (%d vs %d bytes); if intentional, bump "+
			"WireVersion and regenerate with -update", len(got), len(want))
	}
}

func TestWireRoundTrip(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalReport(eng.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	w, err := UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Version != WireVersion || w.Summary.Total != len(eng.Snapshot().Inferences) {
		t.Fatalf("round trip lost data: %+v", w.Summary)
	}
	if w.Summary.Local+w.Summary.Remote+w.Summary.Unknown != w.Summary.Total {
		t.Fatal("summary counts inconsistent")
	}
}

func TestWireVersionRejected(t *testing.T) {
	if _, err := UnmarshalReport([]byte(`{"version": 99}`)); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
	if _, err := UnmarshalReport([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestWireEncoderMatchesEncodingJSON holds the append encoder to
// json.MarshalIndent on the golden IXP's report and on the whole 1x
// report.
func TestWireEncoderMatchesEncodingJSON(t *testing.T) {
	eng, err := New(testInputs(t))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := eng.ReportFor(context.Background(), goldenIXP(eng.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Report{"golden": sub, "1x": eng.Snapshot()} {
		w := ToWire(rep)
		want, err := json.MarshalIndent(w, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder output (%d bytes) differs from encoding/json (%d bytes) at byte %d",
				name, len(got), len(want), firstDiff(got, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// FuzzWireEncode holds the append encoder to encoding/json as the
// oracle: for any wire report it must write exactly the bytes of
// json.MarshalIndent(w, "", " "), and fail exactly when encoding/json
// fails (a non-finite RTT). The input drives the strings (split on
// '|'), the numbers and the shape: bits of shape pick nil or empty
// lists and which optional fields are set; shape>>5 is the inference
// count and routers get one entry per bit-4 flip.
func FuzzWireEncode(f *testing.F) {
	nasty := "A<b>&c|\"q\\|\x00\x01\b\f\n\r\t\x1f\x7f|\u2028\u2029|\xff\xfe bad|é€😀|"
	for _, seed := range []struct {
		strs  string
		rtt   float64
		n     int64
		shape uint8
	}{
		{"DE-CIX|80.81.192.10|local|rtt+colo", 0.56, 2633, 0xff},
		{nasty, math.Copysign(0, -1), 1, 0x5f},           // -0 and the smallest subnormal; nil Ifaces and IXPs
		{nasty, 1e-7, 1 << 53, 0xe7},                     // 'e' format below 1e-6
		{nasty, 1e21, 0x7fefffffffffffff, 0x5c},          // 'e' format at 1e21, the largest float64
		{nasty, 5e-324, math.MinInt64, 0x3d},             // subnormal RTT, extreme integers
		{nasty, 123456789012345678, math.MaxInt64, 0x34}, // a large integral RTT; empty Ifaces
		{nasty, 0.1, 7, 0x35},                            // empty Ifaces and IXPs
		{"x", 0, 0, 0x01},                                // zero inferences (nil), zero routers
		{"x", 0, 0, 0x00},                                // zero inferences (empty)
		{"x", 0, 0, 0x11},                                // an empty router list is omitted
		{"AMS-IX|", math.Inf(1), 1, 0x2f},                // +Inf: both sides fail
		{"AMS-IX|", math.Inf(-1), 1, 0x2f},               // -Inf: both sides fail
		{"AMS-IX|", 1, -1, 0x44},                         // NaN: both sides fail
	} {
		f.Add(seed.strs, seed.rtt, seed.n, seed.shape)
	}
	f.Fuzz(func(t *testing.T, strs string, rtt float64, n int64, shape uint8) {
		w := fuzzWireReport(strings.Split(strs, "|"), rtt, n, shape)
		want, werr := json.MarshalIndent(w, "", " ")
		got, gerr := encodeWire(w)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("encoding/json error %v, encoder error %v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encoder differs from encoding/json at byte %d:\n got %q\nwant %q", firstDiff(got, want), got, want)
		}
	})
}

// fuzzWireReport builds a wire report from fuzz input; see
// FuzzWireEncode for how the input maps to the report.
func fuzzWireReport(strs []string, rtt float64, n int64, shape uint8) *WireReport {
	str := func(i int) string { return strs[i%len(strs)] }
	list := func(nilBit, emptyBit uint8, from int) []string {
		switch {
		case shape&nilBit != 0:
			return nil
		case shape&emptyBit != 0:
			return []string{}
		}
		return []string{str(from), str(from + 1)}
	}
	w := &WireReport{
		Version: int(n),
		Summary: WireSummary{Total: int(n), Local: int(n >> 32), Remote: -int(n), Unknown: len(strs)},
	}
	if shape&0x01 == 0 {
		w.Inferences = []WireInference{}
	}
	for i := range int(shape >> 5) {
		inf := WireInference{IXP: str(i), Iface: str(i + 1), ASN: uint32(n) + uint32(i), Class: str(i + 2)}
		if shape&0x02 == 0 {
			inf.Step = str(i + 3)
		}
		if shape&0x04 != 0 {
			v := rtt
			if i%2 == 1 {
				v = math.Float64frombits(uint64(n)) // subnormals, NaNs, huge values
			}
			inf.RTTMinMs = &v
		}
		if shape&0x08 != 0 {
			v := int(n) - i
			inf.FeasibleIXPFacilities = &v
		}
		inf.TraceRTT = i%2 == 0
		w.Inferences = append(w.Inferences, inf)
	}
	if shape&0x10 != 0 {
		w.Routers = []WireRouter{}
		for i := range int(shape>>5) % 3 {
			w.Routers = append(w.Routers, WireRouter{
				ASN: uint32(n >> 8), Ifaces: list(0x02, 0x04, i), IXPs: list(0x08, 0x01, i+2), Class: str(i),
			})
		}
	}
	return w
}

// TestSortInferencesStringOrder: the packed-key sort must order exactly
// as comparing (IXP, interface) strings, including interfaces longer
// than the 16 packed bytes that tie on them, prefixes and NUL bytes.
func TestSortInferencesStringOrder(t *testing.T) {
	ifaces := []string{
		"2001:7f8:1::a506:4501:1", "2001:7f8:1::a506:4501:10", "2001:7f8:1::a506:4500:9",
		"2001:7f8:1::a506", "2001:7f8:1::a50", "80.81.192.10", "80.81.192.1", "80.81.192.2",
		"9.0.0.1", "a\x00", "a", "a\x00b", "",
	}
	var infs []WireInference
	for _, ixp := range []string{"DE-CIX", "AMS-IX", "AMS-IX2"} {
		for _, iface := range ifaces {
			infs = append(infs, WireInference{IXP: ixp, Iface: iface})
		}
	}
	want := slices.Clone(infs)
	slices.SortFunc(want, func(a, b WireInference) int {
		return cmp.Or(strings.Compare(a.IXP, b.IXP), strings.Compare(a.Iface, b.Iface))
	})
	slices.Reverse(infs)
	if got := sortInferences(infs); !slices.Equal(got, want) {
		t.Fatalf("sorted order differs:\n got %v\nwant %v", got, want)
	}
}
