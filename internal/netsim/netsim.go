// Package netsim generates and hosts the synthetic Internet ecosystem
// on which the remote peering inference methodology runs: cities,
// colocation facilities, IXPs (including wide-area IXPs and IXP
// federations), member ASes, routers, peering-LAN interfaces, resellers
// and private interconnections, together with a hidden ground truth of
// which IXP memberships are local and which are remote.
//
// The real study measured the live Internet; this package substitutes a
// seeded, reproducible world that exposes the same observable artefacts
// (registry records, ping RTTs, traceroute paths, IP-ID side channels)
// with the noise and incompleteness rates reported in the paper, so the
// inference pipeline faces the same ambiguity structure.
package netsim

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"rpeer/internal/geo"
)

// ASN is an autonomous system number.
type ASN uint32

// String implements fmt.Stringer in the conventional "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// FacilityID identifies a colocation facility.
type FacilityID int32

// IXPID identifies an Internet eXchange Point.
type IXPID int32

// RouterID identifies a physical router.
type RouterID int32

// ConnKind describes how an IXP member reaches the IXP switching
// fabric. Everything except ConnLocal is remote peering under the
// paper's Definition 1.
type ConnKind uint8

const (
	// ConnLocal: the member's router is patched directly to the IXP
	// switch in a facility where the IXP has presence.
	ConnLocal ConnKind = iota
	// ConnReseller: the member buys a (often fractional) virtual port
	// through a port reseller's network.
	ConnReseller
	// ConnLongCable: the member buys a physical port but back-hauls it
	// over an owned or leased layer-2 circuit from a distant location.
	ConnLongCable
	// ConnFederation: the member is local to a sibling IXP of the same
	// federation and reaches this IXP over the inter-IXP interconnect.
	ConnFederation
)

// Remote reports whether the connection kind constitutes remote peering
// under Definition 1 of the paper.
func (k ConnKind) Remote() bool { return k != ConnLocal }

// String implements fmt.Stringer.
func (k ConnKind) String() string {
	switch k {
	case ConnLocal:
		return "local"
	case ConnReseller:
		return "reseller"
	case ConnLongCable:
		return "long-cable"
	case ConnFederation:
		return "federation"
	default:
		return fmt.Sprintf("ConnKind(%d)", uint8(k))
	}
}

// City is a metropolitan area that can host facilities.
type City struct {
	Name    string
	Country string // ISO 3166-1 alpha-2
	Loc     geo.Point
	// Weight steers how much infrastructure the generator places in the
	// city (facilities, AS headquarters, IXP sizes).
	Weight float64
}

// Facility is a colocation data centre.
type Facility struct {
	ID      FacilityID
	Name    string
	City    string
	Country string
	Loc     geo.Point
}

// IXP is an Internet exchange point: a layer-2 switching fabric
// deployed in one or more facilities.
type IXP struct {
	ID   IXPID
	Name string
	// PeeringLAN is the public subnet from which member interfaces are
	// assigned.
	PeeringLAN netip.Prefix
	// MgmtLAN is the IXP's management subnet; some Atlas-like probes
	// land here and must be filtered out by the measurement pipeline.
	MgmtLAN netip.Prefix
	// RouteServer is the IXP route server address on the peering LAN;
	// looking glasses ping from/next to it and VP-sanity filters ping
	// to it.
	RouteServer netip.Addr
	// Facilities where the IXP has deployed switches.
	Facilities []FacilityID
	// MinPortMbps is the minimum *physical* port capacity sold by the
	// IXP itself (Cmin in Step 1). Fractional capacities below this are
	// only available through resellers.
	MinPortMbps int
	// PortOptionsMbps are the physical port capacities on the IXP's
	// price list.
	PortOptionsMbps []int
	// AllowsResellers indicates whether the IXP runs a reseller
	// program.
	AllowsResellers bool
	// FederationID groups sibling IXPs operated by one organisation
	// (0 = none). Members local to one sibling can peer remotely at the
	// others.
	FederationID int
	// HasLG indicates a public looking glass inside the peering LAN.
	HasLG bool
	// AtlasProbes is the number of RIPE-Atlas-like probes colocated
	// with the IXP (some usable, some in the management LAN).
	AtlasProbes int
	// WideArea is true when the switching fabric spans facilities more
	// than one metro area apart (Section 4.2).
	WideArea bool
}

// AS is an autonomous system.
type AS struct {
	ASN      ASN
	Name     string
	Country  string
	HomeCity string
	HomeLoc  geo.Point
	// Facilities lists ground-truth colocation presence.
	Facilities []FacilityID
	// TrafficMbps is the self-reported aggregate traffic level
	// (PeeringDB-style), used by the Fig 11b analysis.
	TrafficMbps float64
	// Tier is 1 (transit-free), 2 (regional) or 3 (stub/edge).
	Tier int
	// Providers are the AS's transit providers (customer-to-provider
	// edges of the relationship graph).
	Providers []ASN
	// IsReseller marks port-reseller organisations (IX-Reach/RETN-like).
	IsReseller bool
	// ResellerPOPs lists the facilities where a reseller offers IXP
	// access.
	ResellerPOPs []FacilityID
}

// Member is one (AS, IXP) membership: the ground-truth record of how
// the AS reaches the IXP. Kind is hidden from the inference pipeline
// and used only for validation.
type Member struct {
	ASN      ASN
	IXP      IXPID
	Iface    netip.Addr // address on the IXP peering LAN
	Router   RouterID
	PortMbps int
	Kind     ConnKind
	// Reseller is the reseller AS used, when Kind == ConnReseller.
	Reseller ASN
	// ViaFed is the sibling IXP through which a federation member is
	// reached, when Kind == ConnFederation.
	ViaFed IXPID
}

// Remote reports the ground-truth remoteness of the membership.
func (m *Member) Remote() bool { return m.Kind.Remote() }

// Router is a physical router. All its interfaces share one IP-ID
// counter, which is what MIDAR-style alias resolution exploits.
type Router struct {
	ID    RouterID
	Owner ASN
	// Facility is the hosting facility, or -1 when the router sits at
	// the owner's off-net location (office, national POP).
	Facility FacilityID
	Loc      geo.Point
	Ifaces   []netip.Addr
	// IXPs lists exchanges this router has layer-3 presence on
	// (multi-IXP routers have more than one).
	IXPs []IXPID
	// IPIDInit and IPIDRate parametrise the router's shared IP-ID
	// counter: id(t) = IPIDInit + IPIDRate*t (mod 65536).
	IPIDInit uint32
	IPIDRate float64
}

// PrivateLink is a private (non-IXP) interconnection between two
// routers, almost always inside a single facility.
type PrivateLink struct {
	A, B           RouterID
	AIface, BIface netip.Addr
	// Facility where the cross-connect lives; -1 for the rare tethered
	// interconnects spanning facilities.
	Facility FacilityID
}

// World is the fully generated ecosystem plus lookup indices.
type World struct {
	Cfg    Config
	Cities []City

	Facilities []*Facility
	IXPs       []*IXP
	ASes       map[ASN]*AS
	ASNs       []ASN      // sorted, for deterministic iteration
	Routers    []*Router  // indexed by RouterID (IDs are 0..n-1)
	RouterIDs  []RouterID // sorted
	Members    []*Member
	Private    []PrivateLink
	Resellers  []ASN

	// ifaceCol is the interface index: one addr<<32 | RouterID word
	// per IPv4 router interface, sorted, so RouterOf is one binary
	// search and no address is ever hashed. Non-IPv4 interfaces (the
	// generator emits none) go to the small sorted ifaceSpill.
	ifaceCol   []uint64
	ifaceSpill []spillIface
	// memberByIXP and facByID are dense, indexed by IXPID and
	// FacilityID (both numbered 0..n-1).
	memberByIXP [][]*Member
	facByID     []*Facility
	asMembers   map[ASN][]*Member
	asPrefixes  map[ASN][]netip.Prefix

	lat *Latency
}

// spillIface is one non-IPv4 entry of the interface index.
type spillIface struct {
	addr netip.Addr
	rid  RouterID
}

// Facility returns the facility with the given id, or nil.
func (w *World) Facility(id FacilityID) *Facility {
	if id >= 0 && int(id) < len(w.facByID) {
		return w.facByID[id]
	}
	return nil
}

// IXP returns the IXP with the given id, or nil.
func (w *World) IXP(id IXPID) *IXP {
	if int(id) < 0 || int(id) >= len(w.IXPs) {
		return nil
	}
	return w.IXPs[id]
}

// AS returns the AS with the given number, or nil.
func (w *World) AS(asn ASN) *AS { return w.ASes[asn] }

// Router returns the router with the given id, or nil.
func (w *World) Router(id RouterID) *Router {
	if id >= 0 && int(id) < len(w.Routers) {
		return w.Routers[id]
	}
	return nil
}

// MembersOf returns the ground-truth membership list of an IXP.
func (w *World) MembersOf(id IXPID) []*Member {
	if id >= 0 && int(id) < len(w.memberByIXP) {
		return w.memberByIXP[id]
	}
	return nil
}

// NumIfaces returns the total number of router interface addresses in
// the world — the capacity bound consumers interning world addresses
// (peering-LAN and infrastructure alike) should presize for.
func (w *World) NumIfaces() int { return len(w.ifaceCol) + len(w.ifaceSpill) }

// MembershipsOf returns all IXP memberships of an AS.
func (w *World) MembershipsOf(asn ASN) []*Member { return w.asMembers[asn] }

// RouterOf returns the router an interface address belongs to and
// whether the address is known.
func (w *World) RouterOf(ip netip.Addr) (RouterID, bool) {
	if ip.Is4() {
		a := addr4(ip)
		i, _ := slices.BinarySearch(w.ifaceCol, a<<32)
		if i < len(w.ifaceCol) && w.ifaceCol[i]>>32 == a {
			return RouterID(uint32(w.ifaceCol[i])), true
		}
		return 0, false
	}
	i, ok := slices.BinarySearchFunc(w.ifaceSpill, ip, func(e spillIface, t netip.Addr) int { return e.addr.Compare(t) })
	if !ok {
		return 0, false
	}
	return w.ifaceSpill[i].rid, true
}

// addr4 is an IPv4 address as a big-endian word, so word order is
// address order.
func addr4(ip netip.Addr) uint64 {
	b := ip.As4()
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// ASPrefixes returns the infrastructure prefixes originated by an AS.
func (w *World) ASPrefixes(asn ASN) []netip.Prefix { return w.asPrefixes[asn] }

// FacilityLocs returns the coordinates of the IXP's facilities.
func (w *World) FacilityLocs(id IXPID) []geo.Point {
	ix := w.IXP(id)
	if ix == nil {
		return nil
	}
	pts := make([]geo.Point, 0, len(ix.Facilities))
	for _, f := range ix.Facilities {
		if fac := w.Facility(f); fac != nil {
			pts = append(pts, fac.Loc)
		}
	}
	return pts
}

// Latency returns the world's latency oracle.
func (w *World) Latency() *Latency { return w.lat }

// LargestIXPs returns the n largest IXPs by ground-truth member count,
// in decreasing size order.
func (w *World) LargestIXPs(n int) []*IXP {
	ixps := make([]*IXP, len(w.IXPs))
	copy(ixps, w.IXPs)
	sort.SliceStable(ixps, func(i, j int) bool {
		return len(w.MembersOf(ixps[i].ID)) > len(w.MembersOf(ixps[j].ID))
	})
	if n > len(ixps) {
		n = len(ixps)
	}
	return ixps[:n]
}

// CommonFacilities returns the facilities shared by the two id sets.
func CommonFacilities(a, b []FacilityID) []FacilityID {
	set := make(map[FacilityID]bool, len(a))
	for _, f := range a {
		set[f] = true
	}
	var out []FacilityID
	for _, f := range b {
		if set[f] {
			out = append(out, f)
			set[f] = false // dedupe
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildIndices populates the lookup indices after generation or
// assembly. Routers must already sit at their ID and members name
// known IXPs; an interface address claimed twice is an error (the index
// could not say whose it is).
func (w *World) buildIndices() error {
	nIfaces := 0
	for _, r := range w.Routers {
		nIfaces += len(r.Ifaces)
	}
	w.RouterIDs = make([]RouterID, len(w.Routers))
	w.ifaceCol = make([]uint64, 0, nIfaces)
	w.ifaceSpill = nil
	for i, r := range w.Routers {
		w.RouterIDs[i] = r.ID
		for _, ip := range r.Ifaces {
			if ip.Is4() {
				w.ifaceCol = append(w.ifaceCol, addr4(ip)<<32|uint64(uint32(r.ID)))
			} else {
				w.ifaceSpill = append(w.ifaceSpill, spillIface{ip, r.ID})
			}
		}
	}
	slices.Sort(w.ifaceCol)
	for i := 1; i < len(w.ifaceCol); i++ {
		if a := w.ifaceCol[i] >> 32; a == w.ifaceCol[i-1]>>32 {
			return fmt.Errorf("netsim: interface %v is claimed by routers %d and %d",
				netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}),
				uint32(w.ifaceCol[i-1]), uint32(w.ifaceCol[i]))
		}
	}
	slices.SortFunc(w.ifaceSpill, func(a, b spillIface) int {
		return cmp.Or(a.addr.Compare(b.addr), cmp.Compare(a.rid, b.rid))
	})
	for i := 1; i < len(w.ifaceSpill); i++ {
		if a, b := w.ifaceSpill[i-1], w.ifaceSpill[i]; a.addr == b.addr {
			return fmt.Errorf("netsim: interface %v is claimed by routers %d and %d", a.addr, a.rid, b.rid)
		}
	}
	w.memberByIXP = make([][]*Member, len(w.IXPs))
	w.asMembers = make(map[ASN][]*Member, len(w.ASes))
	for _, m := range w.Members {
		w.memberByIXP[m.IXP] = append(w.memberByIXP[m.IXP], m)
		w.asMembers[m.ASN] = append(w.asMembers[m.ASN], m)
	}
	w.ASNs = w.ASNs[:0]
	for asn := range w.ASes {
		w.ASNs = append(w.ASNs, asn)
	}
	slices.Sort(w.ASNs)
	return nil
}
