package bot

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/netsim"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

var quiet = log.New(io.Discard, "", 0)

func TestCollectorObserve(t *testing.T) {
	for _, tc := range []struct {
		status                                  int
		admitted, shed, rejected, errs, samples uint64
	}{
		{http.StatusOK, 1, 0, 0, 0, 1},
		{http.StatusServiceUnavailable, 0, 1, 0, 0, 0},
		{http.StatusBadRequest, 0, 0, 1, 0, 0},
		{http.StatusUnprocessableEntity, 0, 0, 1, 0, 0},
		{serve.StatusClientClosedRequest, 0, 0, 0, 1, 0},
		{0, 0, 0, 0, 1, 0},
		{http.StatusInternalServerError, 0, 0, 0, 1, 0},
	} {
		var c collector
		c.observe(tc.status, 3*time.Millisecond)
		st := c.stats()
		got := [5]uint64{st.Admitted, st.Shed, st.Rejected, st.Errors, uint64(len(c.hist.samples))}
		want := [5]uint64{tc.admitted, tc.shed, tc.rejected, tc.errs, tc.samples}
		if st.Requests != 1 || got != want {
			t.Errorf("status %d: requests %d, [admitted shed rejected errors samples] = %v, want 1, %v",
				tc.status, st.Requests, got, want)
		}
	}
}

// Past histCap the histogram keeps every stride-th sample; over a
// uniform ramp that moves no quantile by more than one stride.
func TestHistDecimationKeepsQuantiles(t *testing.T) {
	var h hist
	const n = 3*histCap + 12345
	for i := 0; i < n; i++ {
		h.observe(time.Duration(i) * time.Millisecond)
	}
	if h.stride < 4 || len(h.samples) >= histCap {
		t.Fatalf("stride %d, %d samples: decimation did not run", h.stride, len(h.samples))
	}
	for _, q := range []float64{0.50, 0.99} {
		want := q * float64(n-1) // the ramp's exact quantile, in ms
		if got := h.quantileMs(q); got < want-float64(h.stride) || got > want+float64(h.stride) {
			t.Errorf("p%.0f = %.0f ms, want %.0f ± %d (one stride)", 100*q, got, want, h.stride)
		}
	}
}

// readRun drives one reader against a stub whose first read answers
// with status and header hdr, and every later one 200.
func readRun(t *testing.T, status int, hdr http.Header) *Report {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			for k, v := range hdr {
				w.Header()[k] = v
			}
			w.WriteHeader(status)
			return
		}
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: srv.URL, Tenants: []string{"a"}, Readers: 1,
		Duration: 100 * time.Millisecond, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() < 2 {
		t.Fatalf("stub saw %d reads, want at least 2", n.Load())
	}
	return rep
}

func TestRunReportsBadStatus(t *testing.T) {
	rep := readRun(t, http.StatusInternalServerError, nil)
	if !strings.HasPrefix(rep.BadStatus, "GET http://") || !strings.HasSuffix(rep.BadStatus, "/v1/t/a/infer -> 500") {
		t.Fatalf("BadStatus = %q, want the 500 read of /v1/t/a/infer", rep.BadStatus)
	}
}

func TestRunRequiresRetryAfterOn503(t *testing.T) {
	rep := readRun(t, http.StatusServiceUnavailable, nil)
	if !strings.HasSuffix(rep.BadStatus, "/v1/t/a/infer -> 503 without Retry-After") {
		t.Fatalf("BadStatus = %q, want a 503 without Retry-After", rep.BadStatus)
	}
	rep = readRun(t, http.StatusServiceUnavailable, http.Header{"Retry-After": {"1"}})
	if rep.BadStatus != "" {
		t.Fatalf("503 with Retry-After flagged: %q", rep.BadStatus)
	}
	if shed := rep.Tenants["a"]["read"].Shed; shed != 1 {
		t.Fatalf("read shed = %d, want 1", shed)
	}
}

// A shed inverse is posted again until it commits: the stub commits
// the forward delta, sheds its inverse once, then commits everything.
func TestShedInverseIsReposted(t *testing.T) {
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/t/a/apply" {
			t.Errorf("unexpected %s %s", r.Method, r.URL.Path)
			return
		}
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		n := len(bodies)
		mu.Unlock()
		switch {
		case n == 2:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		case n >= 3:
			cancel()
		}
	}))
	defer srv.Close()
	rep, err := Run(ctx, Config{
		BaseURL: srv.URL, Tenants: []string{"a"}, Appliers: 1, Duration: 10 * time.Second,
		Inputs: func(string) (rpi.Inputs, error) { return in, nil }, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) < 3 {
		t.Fatalf("stub saw %d applies, want at least 3", len(bodies))
	}
	if bodies[0] == bodies[1] {
		t.Fatal("second post repeats the forward delta, want its inverse")
	}
	if bodies[2] != bodies[1] {
		t.Fatal("third post is not the shed inverse: the inverse was dropped")
	}
	if w := rep.Tenants["a"]["write"]; w.Shed != 1 || w.Admitted < 2 || rep.BadStatus != "" {
		t.Fatalf("write stats %+v, bad status %q: want 1 shed, the inverse committed", w, rep.BadStatus)
	}
}
