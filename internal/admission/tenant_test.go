package admission

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestTenantFairShareCapsHotTenant: with 4 Read slots and a 0.5 share,
// one tenant is capped at 2 concurrent requests — the third is shed
// even though the class has free slots — and a sibling tenant is still
// admitted into the protected headroom.
func TestTenantFairShareCapsHotTenant(t *testing.T) {
	c := New(Config{
		Read:        Limits{Slots: 4, Queue: 4, MaxWait: time.Second},
		TenantShare: 0.5,
	})
	var rels []func()
	for i := 0; i < 2; i++ {
		rel, err := c.AdmitTenant(context.Background(), Read, "hot")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	if _, err := c.AdmitTenant(context.Background(), Read, "hot"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third hot request: err = %v, want ErrOverloaded", err)
	}
	rel, err := c.AdmitTenant(context.Background(), Read, "cold")
	if err != nil {
		t.Fatalf("cold tenant starved: %v", err)
	}
	rel()
	ts := c.TenantStats()
	if got := ts["hot"]["read"]; got.Admitted != 2 || got.Shed != 1 || got.Inflight != 2 {
		t.Fatalf("hot stats = %+v", got)
	}
	if got := ts["cold"]["read"]; got.Admitted != 1 || got.Shed != 0 || got.Inflight != 0 {
		t.Fatalf("cold stats = %+v", got)
	}
	for _, r := range rels {
		r()
		r() // double release must not double-decrement
	}
	if got := c.TenantStats()["hot"]["read"]; got.Inflight != 0 {
		t.Fatalf("hot inflight did not drain: %+v", got)
	}
}

// TestSoleTenantUncapped: a sole tenant may hold the whole class and
// its queue under the default share, with its traffic still
// attributed; once it is no longer sole, AdmitTenant counts what it
// already holds against the cap.
func TestSoleTenantUncapped(t *testing.T) {
	c := New(Config{Read: Limits{Slots: 2, Queue: 1, MaxWait: time.Second}})
	var rels []func()
	for i := 0; i < 2; i++ {
		rel, err := c.AdmitSoleTenant(context.Background(), Read, "only")
		if err != nil {
			t.Fatalf("sole admit %d: %v", i, err)
		}
		rels = append(rels, rel)
	}
	queued := make(chan error, 1)
	go func() {
		rel, err := c.AdmitSoleTenant(context.Background(), Read, "only")
		if err == nil {
			rel()
		}
		queued <- err
	}()
	for c.Stats()["read"].Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	if _, err := c.AdmitTenant(context.Background(), Read, "only"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("capped admit over a full share: err = %v, want ErrOverloaded", err)
	}
	rels[0]()
	if err := <-queued; err != nil {
		t.Fatalf("queued sole request: %v", err)
	}
	rels[1]()
	if got := c.TenantStats()["only"]["read"]; got.Admitted != 3 || got.Shed != 1 || got.Inflight != 0 {
		t.Fatalf("sole tenant stats = %+v", got)
	}
}

// TestTenantShareDisabled: TenantShare >= 1 removes the cap — one
// tenant may hold the whole class (the global gate still bounds it).
func TestTenantShareDisabled(t *testing.T) {
	c := New(Config{
		Read:        Limits{Slots: 2, Queue: 0, MaxWait: time.Millisecond},
		TenantShare: 1,
	})
	r1, err := c.AdmitTenant(context.Background(), Read, "only")
	if err != nil {
		t.Fatal(err)
	}
	defer r1()
	r2, err := c.AdmitTenant(context.Background(), Read, "only")
	if err != nil {
		t.Fatalf("uncapped tenant refused below class limit: %v", err)
	}
	defer r2()
	if _, err := c.AdmitTenant(context.Background(), Read, "only"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("class gate gone: err = %v", err)
	}
}

// TestTenantEmptyNameSkipsAttribution: unattributed (control-plane)
// requests leave no tenant state behind.
func TestTenantEmptyNameSkipsAttribution(t *testing.T) {
	c := New(Config{Read: Limits{Slots: 1, Queue: 1, MaxWait: time.Second}})
	rel, err := c.AdmitTenant(context.Background(), Read, "")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if ts := c.TenantStats(); len(ts) != 0 {
		t.Fatalf("tenant stats for anonymous traffic: %v", ts)
	}
}

// TestTenantCancellationAttributed: a queued tenant request whose
// caller disconnects counts as canceled for that tenant, not shed.
func TestTenantCancellationAttributed(t *testing.T) {
	c := New(Config{Read: Limits{Slots: 1, Queue: 1, MaxWait: time.Minute}, TenantShare: 1})
	rel, err := c.AdmitTenant(context.Background(), Read, "a")
	if err != nil {
		t.Fatal(err)
	}
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.AdmitTenant(ctx, Read, "a")
		done <- err
	}()
	for i := 0; c.Stats()["read"].Queued == 0; i++ {
		if i > 1000 {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := c.TenantStats()["a"]["read"]; got.Canceled != 1 || got.Shed != 0 || got.Inflight != 1 {
		t.Fatalf("stats = %+v", got)
	}
}

// TestForgetTenant drops the counters; traffic after recreation starts
// from zero.
func TestForgetTenant(t *testing.T) {
	c := New(Config{Read: Limits{Slots: 2, Queue: 0, MaxWait: time.Millisecond}})
	rel, err := c.AdmitTenant(context.Background(), Read, "gone")
	if err != nil {
		t.Fatal(err)
	}
	rel()
	c.ForgetTenant("gone")
	if _, ok := c.TenantStats()["gone"]; ok {
		t.Fatal("forgotten tenant still listed")
	}
}

// TestTenantChurnUnderRace hammers AdmitTenant from many goroutines
// and tenants: every admit is released, gauges drain to zero, and
// admitted+shed accounting matches per tenant.
func TestTenantChurnUnderRace(t *testing.T) {
	c := New(Config{Read: Limits{Slots: 4, Queue: 2, MaxWait: 10 * time.Millisecond}, TenantShare: 0.5})
	tenants := []string{"t0", "t1", "t2"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		tn := tenants[i%len(tenants)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				rel, err := c.AdmitTenant(context.Background(), Read, tn)
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("unexpected error: %v", err)
						return
					}
					continue
				}
				rel()
			}
		}()
	}
	wg.Wait()
	for _, tn := range tenants {
		got := c.TenantStats()[tn]["read"]
		if got.Inflight != 0 {
			t.Fatalf("%s inflight did not drain: %+v", tn, got)
		}
		if got.Admitted+got.Shed != 200 {
			t.Fatalf("%s accounting: admitted %d + shed %d != 200", tn, got.Admitted, got.Shed)
		}
	}
	if st := c.Stats()["read"]; st.Inflight != 0 || st.Queued != 0 {
		t.Fatalf("class gauges did not drain: %+v", st)
	}
}
