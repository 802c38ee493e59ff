package netsim

import (
	"net/netip"
	"slices"
	"strings"
	"testing"
)

// CheckIfaceIndex lets the external round-trip test run the index
// check over a decoded world.
var CheckIfaceIndex = checkIfaceIndex

// checkIfaceIndex checks the interface index against the routers: every
// address of every router resolves to that router, NumIfaces counts
// them all, and addresses no router claims (below the smallest, between
// two known, above the largest, non-IPv4) resolve to nothing.
func checkIfaceIndex(t testing.TB, w *World) {
	t.Helper()
	var all []netip.Addr
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		for _, ip := range r.Ifaces {
			if rid, ok := w.RouterOf(ip); !ok || rid != r.ID {
				t.Fatalf("RouterOf(%v) = %d, %v; want router %d", ip, rid, ok, r.ID)
			}
			all = append(all, ip)
		}
	}
	if w.NumIfaces() != len(all) {
		t.Fatalf("NumIfaces = %d, routers carry %d interfaces", w.NumIfaces(), len(all))
	}
	if len(all) == 0 {
		t.Fatal("world has no interfaces")
	}
	slices.SortFunc(all, netip.Addr.Compare)
	unknown := []netip.Addr{
		all[len(all)-1].Next(),
		netip.MustParseAddr("::1"),
		netip.AddrFrom16(all[0].As16()), // the 4-in-6 form is another address
	}
	if p := all[0].Prev(); p.IsValid() {
		unknown = append(unknown, p)
	}
	for i := 1; i < len(all); i++ {
		if between := all[i-1].Next(); between != all[i] {
			unknown = append(unknown, between)
			break
		}
	}
	if len(unknown) < 5 {
		t.Fatal("no gap between two known interface addresses")
	}
	for _, ip := range unknown {
		if rid, ok := w.RouterOf(ip); ok {
			t.Errorf("unknown address %v resolves to router %d", ip, rid)
		}
	}
}

// TestFromPartsIndexesNonIPv4 pins the spill column: interfaces that
// are not plain IPv4 are indexed too, distinct from their IPv4 form.
func TestFromPartsIndexesNonIPv4(t *testing.T) {
	p := tinyWorld(t).Parts()
	p.Routers = cloneRouters(p.Routers)
	v6 := netip.MustParseAddr("2001:db8::1")
	mapped := netip.AddrFrom16(p.Routers[1].Ifaces[0].As16())
	p.Routers[0].Ifaces = append(p.Routers[0].Ifaces, v6)
	p.Routers[2].Ifaces = append(p.Routers[2].Ifaces, mapped)
	w, err := FromParts(p)
	if err != nil {
		t.Fatal(err)
	}
	if rid, ok := w.RouterOf(v6); !ok || rid != p.Routers[0].ID {
		t.Errorf("RouterOf(%v) = %d, %v; want %d", v6, rid, ok, p.Routers[0].ID)
	}
	if rid, ok := w.RouterOf(mapped); !ok || rid != p.Routers[2].ID {
		t.Errorf("RouterOf(%v) = %d, %v; want %d", mapped, rid, ok, p.Routers[2].ID)
	}
	checkIfaceIndex(t, w)
}

// TestFromPartsRejectsSharedIface: two routers claiming one interface
// address leave its owner undefined, so assembly must refuse them (the
// old map index silently kept whichever write came last).
func TestFromPartsRejectsSharedIface(t *testing.T) {
	base := tinyWorld(t).Parts()
	for name, addr := range map[string]func(r []*Router) netip.Addr{
		"ipv4": func(r []*Router) netip.Addr { return r[0].Ifaces[0] },
		"ipv6": func(r []*Router) netip.Addr {
			v6 := netip.MustParseAddr("2001:db8::7")
			r[0].Ifaces = append(r[0].Ifaces, v6)
			return v6
		},
	} {
		p := base
		p.Routers = cloneRouters(base.Routers)
		dup := addr(p.Routers)
		last := p.Routers[len(p.Routers)-1]
		last.Ifaces = append(last.Ifaces, dup)
		if _, err := FromParts(p); err == nil || !strings.Contains(err.Error(), "claimed by routers") {
			t.Errorf("%s: duplicate interface %v: got %v, want a claimed-twice error", name, dup, err)
		}
	}
}

// TestFromPartsRejectsBadFacilityIDs: facility IDs index a dense table
// like router IDs, so a repeated or out-of-range one must be refused.
func TestFromPartsRejectsBadFacilityIDs(t *testing.T) {
	base := tinyWorld(t).Parts()
	for _, id := range []FacilityID{-1, FacilityID(len(base.Facilities)), 0} {
		p := base
		p.Facilities = make([]*Facility, len(base.Facilities))
		for i, f := range base.Facilities {
			c := *f
			p.Facilities[i] = &c
		}
		p.Facilities[1].ID = id // 0 repeats facility 0
		if _, err := FromParts(p); err == nil {
			t.Errorf("facility id %d accepted", id)
		}
	}
}

func tinyWorld(t testing.TB) *World {
	t.Helper()
	w, err := Generate(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// cloneRouters copies the routers and their interface lists, so a test
// can edit them without touching the world they came from.
func cloneRouters(rs []*Router) []*Router {
	out := make([]*Router, len(rs))
	for i, r := range rs {
		c := *r
		c.Ifaces = slices.Clone(r.Ifaces)
		out[i] = &c
	}
	return out
}
