package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpeer/internal/host"
	"rpeer/internal/pingsim"
	"rpeer/internal/supervisor"
	"rpeer/internal/wal"
	"rpeer/pkg/rpi"
)

var (
	fixOnce sync.Once
	fixIn   rpi.Inputs
	fixErr  error
)

func testInputs(t testing.TB) rpi.Inputs {
	t.Helper()
	fixOnce.Do(func() {
		fixIn, fixErr = rpi.SyntheticInputs(1, 1)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixIn
}

// testServer serves the paper-sized world as the default tenant of a
// host journaling to an in-memory WAL, and returns its opened engine.
func testServer(t *testing.T) (*rpi.Engine, *httptest.Server) {
	t.Helper()
	in := testInputs(t)
	h, _, srv := testHost(t, host.Config{
		Inputs:  func(host.TenantSpec) (rpi.Inputs, error) { return in, nil },
		Options: []rpi.Option{rpi.WithWALFS(wal.NewMemFS())},
	}, Config{}, "default", host.TenantSpec{Name: "default"})
	return engineOf(t, h, "default"), srv
}

// guardOf opens the tenant if it is cold and returns its supervisor.
// The guard stays the tenant's until an eviction or delete, which the
// tests using it never trigger.
func guardOf(t *testing.T, h *host.Host, name string) *supervisor.Guard {
	t.Helper()
	lease, err := h.Lease(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	return lease.Guard()
}

// engineOf returns the tenant's current engine (see guardOf).
func engineOf(t *testing.T, h *host.Host, name string) *rpi.Engine {
	t.Helper()
	return guardOf(t, h, name).Engine()
}

// mustWire renders a delta as a /v1/apply body.
func mustWire(t testing.TB, d rpi.Delta) WireDelta {
	t.Helper()
	wd, err := NewWireDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func get(t *testing.T, url string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d (%s)", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

// gatedFS is an in-memory WAL filesystem whose Create can be held
// shut: a quarantined engine's re-open creates a fresh log segment, so
// holding Create keeps the engine quarantined until release.
type gatedFS struct {
	*wal.MemFS
	mu   sync.Mutex
	gate chan struct{} // non-nil while held
}

func (f *gatedFS) hold() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gate = make(chan struct{})
}

func (f *gatedFS) release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
}

func (f *gatedFS) Create(path string) (wal.File, error) {
	f.mu.Lock()
	g := f.gate
	f.mu.Unlock()
	if g != nil {
		<-g
	}
	return f.MemFS.Create(path)
}

// TestReadinessGating: /readyz follows the default tenant. It answers
// 503 until the tenant's first open completes, 200 with the seq once
// the engine serves, 503 + Retry-After while the engine is quarantined
// and healing (reads keep serving meanwhile), and 200 again once it
// has healed. /healthz is 200 throughout.
func TestReadinessGating(t *testing.T) {
	fsys := &gatedFS{MemFS: wal.NewMemFS()}
	t.Cleanup(fsys.release)
	var armed atomic.Bool
	h, _, srv := testHost(t, host.Config{Options: []rpi.Option{
		rpi.WithWALFS(fsys),
		rpi.WithSnapshotEvery(0),
		rpi.WithLogger(quiet),
		rpi.WithApplyHook(func(uint64, rpi.Delta) {
			if armed.CompareAndSwap(true, false) {
				panic("serve_test: injected engine fault")
			}
		}),
	}}, Config{}, "default", host.TenantSpec{Name: "default", Seed: 1})

	var health struct {
		OK bool `json:"ok"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/healthz", http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK {
		t.Fatalf("healthz = %+v", health)
	}
	get(t, srv.URL+"/readyz", http.StatusServiceUnavailable)

	eng := engineOf(t, h, "default")
	var ready struct {
		Ready bool    `json:"ready"`
		Seq   *uint64 `json:"seq"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/readyz", http.StatusOK), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || ready.Seq == nil || *ready.Seq != 0 {
		t.Fatalf("readyz after open = %s", get(t, srv.URL+"/readyz", http.StatusOK))
	}

	fsys.hold()
	armed.Store(true)
	postApply(t, srv.URL, mustWire(t, rpi.ChurnDelta(eng.Inputs(), 0.05, 2)), http.StatusServiceUnavailable)
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(string(b), `"quarantined":true`) {
		t.Fatalf("quarantined readyz: status %d, Retry-After %q, body %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), b)
	}
	get(t, srv.URL+"/v1/infer", http.StatusOK)

	fsys.release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz still %d 10s after the re-open was released", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := testServer(t)
	var body struct {
		OK      bool `json:"ok"`
		Tenants int  `json:"tenants"`
	}
	if err := json.Unmarshal(get(t, srv.URL+"/healthz", http.StatusOK), &body); err != nil {
		t.Fatal(err)
	}
	if !body.OK || body.Tenants != 1 {
		t.Fatalf("healthz = %+v", body)
	}
}

func TestInferServesWireReport(t *testing.T) {
	eng, srv := testServer(t)
	b := get(t, srv.URL+"/v1/infer", http.StatusOK)
	w, err := rpi.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Summary.Total != len(eng.Snapshot().Inferences) {
		t.Fatalf("served %d memberships, engine has %d", w.Summary.Total, len(eng.Snapshot().Inferences))
	}
	want, _ := rpi.MarshalReport(eng.Snapshot())
	if !bytes.Equal(b, want) {
		t.Fatal("served bytes differ from MarshalReport")
	}
}

func TestReportPerIXP(t *testing.T) {
	eng, srv := testServer(t)
	var ixp string
	for k := range eng.Snapshot().Inferences {
		ixp = k.IXP
		break
	}
	b := get(t, srv.URL+"/v1/report/"+ixp, http.StatusOK)
	w, err := rpi.UnmarshalReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.Summary.Total == 0 {
		t.Fatalf("empty report for %s", ixp)
	}
	for _, inf := range w.Inferences {
		if inf.IXP != ixp {
			t.Fatalf("foreign inference %+v in %s report", inf, ixp)
		}
	}
	get(t, srv.URL+"/v1/report/no-such-ixp", http.StatusNotFound)
}

func postApply(t *testing.T, url string, wd WireDelta, wantStatus int) *rpi.Update {
	t.Helper()
	body, err := json.Marshal(wd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST /v1/apply: status %d, want %d (%s)", resp.StatusCode, wantStatus, b)
	}
	if wantStatus != http.StatusOK {
		return nil
	}
	var up rpi.Update
	if err := json.Unmarshal(b, &up); err != nil {
		t.Fatal(err)
	}
	return &up
}

// TestNewWireDelta: joins and leaves encode; ping overrides are
// refused rather than silently dropped.
func TestNewWireDelta(t *testing.T) {
	ip := netip.MustParseAddr("203.0.113.1")
	wd, err := NewWireDelta(rpi.Delta{
		Joins:  []rpi.Join{{IXP: "x", Iface: ip, ASN: 7, PortMbps: 100}},
		Leaves: []rpi.Key{{IXP: "y", Iface: ip}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := WireDelta{
		Joins:  []WireJoin{{IXP: "x", Iface: "203.0.113.1", ASN: 7, PortMbps: 100}},
		Leaves: []WireKey{{IXP: "y", Iface: "203.0.113.1"}},
	}
	if !reflect.DeepEqual(wd, want) {
		t.Fatalf("wire delta = %+v, want %+v", wd, want)
	}
	if _, err := NewWireDelta(rpi.Delta{Ping: map[netip.Addr]pingsim.Override{ip: {RTTMinMs: 5}}}); err == nil {
		t.Fatal("ping overrides encoded instead of refused")
	}
}

func TestApplyOverHTTP(t *testing.T) {
	eng, srv := testServer(t)
	d := rpi.ChurnDelta(eng.Inputs(), 0.005, 5)
	up := postApply(t, srv.URL, mustWire(t, d), http.StatusOK)
	if up.Seq != 1 || up.Joined != len(d.Joins) || up.Left != len(d.Leaves) {
		t.Fatalf("update = %+v", up)
	}

	// An RTT refresh for a currently measured interface, no vp_id.
	idx := eng.Inputs().Ping.IfaceIndex()
	var iface string
	for ip := range idx {
		iface = ip.String()
		break
	}
	up = postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface, RTTMinMs: 42.5}}}, http.StatusOK)
	if up.RTTRefreshed != 1 {
		t.Fatalf("update = %+v", up)
	}

	// Bad deltas: malformed address, poisoned RTT, unknown membership,
	// garbage body.
	postApply(t, srv.URL, WireDelta{Leaves: []WireKey{{IXP: "x", Iface: "not-an-ip"}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface, RTTMinMs: -3}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{RTT: []WireRTT{{Iface: iface}}}, http.StatusBadRequest)
	postApply(t, srv.URL, WireDelta{Leaves: []WireKey{{IXP: "no-such-ixp", Iface: "203.0.113.1"}}}, http.StatusUnprocessableEntity)
	resp, err := http.Post(srv.URL+"/v1/apply", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d", resp.StatusCode)
	}
}

// TestSoleTenantQueuesConcurrentApplies: a one-tenant host under the
// shipped admission defaults queues a second concurrent apply behind
// the first (Write has one slot) instead of shedding it at a fairness
// cap, so both answer 200.
func TestSoleTenantQueuesConcurrentApplies(t *testing.T) {
	in := tinyInputs(t)
	entered, gate := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	hook := func(uint64, rpi.Delta) {
		if calls.Add(1) == 1 {
			close(entered)
			<-gate
		}
	}
	h, s, srv := testHost(t, host.Config{
		Inputs:  func(host.TenantSpec) (rpi.Inputs, error) { return in, nil },
		Options: []rpi.Option{rpi.WithWALFS(wal.NewMemFS()), rpi.WithApplyHook(hook)},
	}, Config{}, "default", host.TenantSpec{Name: "default"})
	engineOf(t, h, "default")

	fwd := rpi.ChurnDelta(in, 0.05, 3)
	rev := rpi.InvertDelta(in, fwd)
	codes := make(chan string, 2)
	post := func(d rpi.Delta) {
		body, _ := json.Marshal(mustWire(t, d))
		resp, err := http.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
		if err != nil {
			codes <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		codes <- fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	go post(fwd)
	<-entered // the first apply holds the Write slot
	go post(rev)
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Stats()["write"].Queued != 1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("second apply never queued: %s", <-codes)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for i := 0; i < 2; i++ {
		if c := <-codes; !strings.HasPrefix(c, "200 ") {
			t.Fatalf("apply %d: %s", i, c)
		}
	}
	if shed := s.Admission().TenantShed("default"); shed != 0 {
		t.Fatalf("sole tenant shed %d requests", shed)
	}
}

// TestConcurrentInferAndApply exercises the engine's locking under the
// race detector: readers hammer /v1/infer and /v1/report while applies
// churn memberships back and forth.
func TestConcurrentInferAndApply(t *testing.T) {
	eng, srv := testServer(t)
	fwd := rpi.ChurnDelta(eng.Inputs(), 0.005, 11)
	rev := rpi.InvertDelta(eng.Inputs(), fwd)

	var ixp string
	for k := range eng.Snapshot().Inferences {
		ixp = k.IXP
		break
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				url := srv.URL + "/v1/infer"
				if i%2 == r%2 {
					url = srv.URL + "/v1/report/" + ixp
				}
				resp, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: %d", url, resp.StatusCode)
					return
				}
				if _, err := rpi.UnmarshalReport(b); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	fwdBody, _ := json.Marshal(mustWire(t, fwd))
	revBody, _ := json.Marshal(mustWire(t, rev))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			body := fwdBody
			if i%2 == 1 {
				body = revBody
			}
			resp, err := http.Post(srv.URL+"/v1/apply", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("apply %d: %d (%s)", i, resp.StatusCode, b)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.Seq() != 6 {
		t.Fatalf("seq = %d, want 6", eng.Seq())
	}
}
