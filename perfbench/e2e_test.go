package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rpeer/internal/worldfile"
)

// A seed the benchmark was not tuned on must run green on every
// workload, traced and untraced, so that later claims can be checked
// on it.
func TestSecondSeedRunsGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full scale")
	}
	out := t.TempDir()
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", wl, "-seed", "2", "-seconds", "1", "-trace", trace, "-out", out}
				if code := mainErr(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				res := lastResult(t, stdout.Bytes())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v attempted %d failed %d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v present %v, want unit %s", d.name, m, ok, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

func lastResult(t *testing.T, stdout []byte) result {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// A cached world that is corrupt, or that is not the world its name
// promises, is regenerated and never served.
func TestWorldCacheRegeneratesBadFiles(t *testing.T) {
	c := &worldCache{dir: t.TempDir(), logf: t.Logf}
	path, fp, err := c.ensure(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.genSeconds
	if gen <= 0 {
		t.Fatal("first use did not generate")
	}
	if _, fp2, err := c.ensure(3, 1); err != nil || fp2 != fp || c.genSeconds != gen {
		t.Fatalf("cached world not reused: fp %x/%x err %v", fp2, fp, err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated":   good[:len(good)/2],
		"flipped":     flipLastByte(good),
		"other world": otherWorld(t),
	} {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		before := c.genSeconds
		_, got, err := c.ensure(3, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.genSeconds == before || got != fp {
			t.Errorf("%s: not regenerated (fingerprint %x, want %x)", name, got, fp)
		}
		if _, err := worldfile.Load(path); err != nil {
			t.Errorf("%s: regenerated file does not load: %v", name, err)
		}
	}
}

func flipLastByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xff
	return out
}

// otherWorld is a valid world file for another seed.
func otherWorld(t *testing.T) []byte {
	c := &worldCache{dir: t.TempDir(), logf: t.Logf}
	path, _, err := c.ensure(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json at the repository root must name exactly the
// workloads and metrics this command reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), want %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), want %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
