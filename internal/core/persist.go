package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/snapshot"
)

// This file is the bridge between the live context and the durable
// column format (internal/snapshot). The full engine state is huge but
// almost all of it is regenerable: the world, the colo database, the
// traceroute corpus and the base ping campaign are deterministic
// functions of the base inputs. Only the delta-mutable slice needs to
// be durable:
//
//   - registry membership (IfaceIXP / IfaceASN / Ports) — churned by
//     joins and leaves;
//   - the cumulative ping override overlay — layered by re-campaigns.
//
// DumpColumns captures exactly that slice as flat columns, and
// RestoreInputs patches it back over freshly regenerated base inputs.
// The round-trip contract (proved by TestPersistRoundTrip and the rpi
// recovery tests) is that a context built over RestoreInputs(base,
// DumpColumns()) produces byte-identical reports to the context that
// was dumped — it leans on the engine's existing determinism contract
// (post-Apply state ≡ cold rebuild over Inputs()).

// Checkpoint tables. The membership and port tables are shared with
// the world file's dataset section ("ds.if", "ds.port"), the override
// table with its folded ping aggregates ("agg") and, row by row, with
// the WAL delta record.

// IfaceRow is one membership: interface, member ASN and the index of
// its IXP in the group's name table.
type IfaceRow struct {
	Iface netip.Addr
	ASN   netsim.ASN
	IXP   uint32
}

// IfaceTable stores IfaceRows as prefix.addr, prefix.asn and
// prefix.ixp (indexing the names column).
func IfaceTable(prefix, names string) snapshot.Table[IfaceRow] {
	return snapshot.Table[IfaceRow]{
		snapshot.Addr(prefix+".addr", func(r *IfaceRow) *netip.Addr { return &r.Iface }),
		snapshot.U32(prefix+".asn", func(r *IfaceRow) *netsim.ASN { return &r.ASN }),
		snapshot.Index(prefix+".ixp", names, func(r *IfaceRow) *uint32 { return &r.IXP }),
	}
}

// PortRow is one reported port capacity, keyed by IXP name index and
// member ASN.
type PortRow struct {
	IXP  uint32
	ASN  netsim.ASN
	Mbps int
}

// PortTable stores PortRows as prefix.ixp (indexing the names column),
// prefix.asn and prefix.mbps.
func PortTable(prefix, names string) snapshot.Table[PortRow] {
	return snapshot.Table[PortRow]{
		snapshot.Index(prefix+".ixp", names, func(r *PortRow) *uint32 { return &r.IXP }),
		snapshot.U32(prefix+".asn", func(r *PortRow) *netsim.ASN { return &r.ASN }),
		snapshot.U64(prefix+".mbps", func(r *PortRow) *int { return &r.Mbps }),
	}
}

// PortRows lists port capacities sorted by (IXP name, ASN).
func PortRows(ports map[registry.PortKey]int, nameIdx map[string]uint32) []PortRow {
	keys := make([]registry.PortKey, 0, len(ports))
	for k := range ports {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].IXP != keys[j].IXP {
			return keys[i].IXP < keys[j].IXP
		}
		return keys[i].ASN < keys[j].ASN
	})
	rows := make([]PortRow, len(keys))
	for i, k := range keys {
		rows[i] = PortRow{IXP: nameIdx[k.IXP], ASN: k.ASN, Mbps: ports[k]}
	}
	return rows
}

// PortMap rebuilds port capacities from rows read through a PortTable
// (which has checked every name index).
func PortMap(rows []PortRow, names []string) map[registry.PortKey]int {
	ports := make(map[registry.PortKey]int, len(rows))
	for _, r := range rows {
		ports[registry.PortKey{IXP: names[r.IXP], ASN: r.ASN}] = r.Mbps
	}
	return ports
}

// NoPingVP is the VP value of an override without a vantage point (a
// measurement revocation).
const NoPingVP = ^uint32(0)

// OverrideRow is one persisted per-interface ping aggregate: a
// checkpoint or WAL override, or a world file's folded aggregate. VP is
// BestVP's ID (NoPingVP for none); Resolve maps it back.
type OverrideRow struct {
	Iface netip.Addr
	VP    uint32
	pingsim.Override
}

// OverrideTable stores OverrideRows as the addr column plus
// prefix.rtt, prefix.vp and prefix.flags (bit 0 BestRoundsUp, bit 1
// AnyRounding).
func OverrideTable(addr, prefix string) snapshot.Table[OverrideRow] {
	return snapshot.Table[OverrideRow]{
		snapshot.Addr(addr, func(r *OverrideRow) *netip.Addr { return &r.Iface }),
		snapshot.F64(prefix+".rtt", func(r *OverrideRow) *float64 { return &r.RTTMinMs }),
		snapshot.U32(prefix+".vp", func(r *OverrideRow) *uint32 { return &r.VP }),
		snapshot.Flags(prefix+".flags",
			func(r *OverrideRow) *bool { return &r.BestRoundsUp },
			func(r *OverrideRow) *bool { return &r.AnyRounding }),
	}
}

// PingTable is the checkpoint's override table; WAL records write the
// same fields row by row.
var PingTable = OverrideTable("ping.addr", "ping")

// NewOverrideRow captures an override for persisting.
func NewOverrideRow(ip netip.Addr, ov pingsim.Override) OverrideRow {
	r := OverrideRow{Iface: ip, VP: NoPingVP, Override: ov}
	if ov.BestVP != nil {
		r.VP = uint32(ov.BestVP.ID)
	}
	return r
}

// OverrideRows lists an override map sorted by address, so the same
// overlay always persists to the same bytes.
func OverrideRows(overlay map[netip.Addr]pingsim.Override) []OverrideRow {
	rows := make([]OverrideRow, 0, len(overlay))
	for ip, ov := range overlay {
		rows = append(rows, NewOverrideRow(ip, ov))
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Iface.Less(rows[j].Iface) })
	return rows
}

// Resolve points BestVP at the roster VP the row's VP ID names.
func (r *OverrideRow) Resolve(byID map[uint32]*pingsim.VP) error {
	r.BestVP = nil
	if r.VP == NoPingVP {
		return nil
	}
	if r.BestVP = byID[r.VP]; r.BestVP == nil {
		return fmt.Errorf("ping override for %s references unknown vantage point %d", r.Iface, r.VP)
	}
	return nil
}

// VPsByID indexes a VP roster by persisted ID.
func VPsByID(vps []*pingsim.VP) map[uint32]*pingsim.VP {
	byID := make(map[uint32]*pingsim.VP, len(vps))
	for _, vp := range vps {
		byID[uint32(vp.ID)] = vp
	}
	return byID
}

// The checkpoint's IXP name table and the membership and port tables
// indexing it.
var (
	nameTable  = snapshot.Table[string]{snapshot.Str("ixp.name", snapshot.Self[string])}
	ifaceTable = IfaceTable("iface", "ixp.name")
	portTable  = PortTable("port", "ixp.name")
)

// Fingerprint hashes the identifying characteristics of base inputs:
// the seed, the prefix plane, the advertised minimum ports, the
// vantage-point roster and the corpus size. Snapshots and WAL segments
// carry it so that recovery refuses to marry durable state to a
// different world (same directory, different -seed/-scale flags).
// It is not a content hash of the full inputs — it fingerprints the
// generator configuration those inputs are a deterministic function
// of.
func Fingerprint(in Inputs) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	u64(uint64(in.Seed))
	if ds := in.Dataset; ds != nil {
		prefixes := make([]string, 0, len(ds.PrefixIXP))
		for p, name := range ds.PrefixIXP {
			prefixes = append(prefixes, p.String()+"="+name)
		}
		sort.Strings(prefixes)
		u64(uint64(len(prefixes)))
		for _, s := range prefixes {
			str(s)
		}
		mins := make([]string, 0, len(ds.MinPort))
		for name, mbps := range ds.MinPort {
			mins = append(mins, fmt.Sprintf("%s=%d", name, mbps))
		}
		sort.Strings(mins)
		u64(uint64(len(mins)))
		for _, s := range mins {
			str(s)
		}
	}
	if in.Ping != nil {
		u64(uint64(len(in.Ping.VPs)))
		for _, vp := range in.Ping.VPs {
			u64(uint64(vp.ID))
			str(vp.SrcIP.String())
		}
	}
	u64(uint64(len(in.Paths)))
	return h.Sum64()
}

// DumpColumns captures the delta-mutable slice of the context's state
// as snapshot columns. The caller (the rpi persistence layer) stamps
// Seq and Fingerprint on the returned Snap.
//
// Determinism: membership rows walk the intern table in ID order —
// append order, which is fixed by the delta history — and the port and
// ping groups are sorted by natural key, so the same engine history
// always dumps byte-identical columns.
//
// DumpColumns must not run concurrently with Apply; the rpi engine
// serializes them behind its lock.
func (c *Context) DumpColumns() *snapshot.Snap {
	ds := c.in.Dataset

	// Local IXP name table: every name the membership and port rows
	// reference, sorted. (The interned IXP space would also work, but
	// it can contain roster names no row references; a local table
	// keeps snapshots self-contained and minimal.)
	nameSet := make(map[string]struct{}, c.ids.NumIXPs())
	for _, name := range ds.IfaceIXP {
		nameSet[name] = struct{}{}
	}
	for k := range ds.Ports {
		nameSet[k.IXP] = struct{}{}
	}
	names, nameIdx := snapshot.Names(nameSet)

	// Membership rows in interned-ID order, skipping tombstones (an
	// address the intern table knows but the dataset no longer lists
	// is a departed membership).
	ifaces := make([]IfaceRow, 0, len(ds.IfaceIXP))
	for _, a := range c.ids.Ifaces() {
		if ixp, ok := ds.IfaceIXP[a]; ok {
			ifaces = append(ifaces, IfaceRow{Iface: a, ASN: ds.IfaceASN[a], IXP: nameIdx[ixp]})
		}
	}

	var overlay map[netip.Addr]pingsim.Override
	if c.in.Ping != nil {
		overlay = c.in.Ping.Overlay()
	}

	s := &snapshot.Snap{}
	s.Columns = nameTable.AppendSlice(s.Columns, names)
	s.Columns = ifaceTable.AppendSlice(s.Columns, ifaces)
	s.Columns = portTable.AppendSlice(s.Columns, PortRows(ds.Ports, nameIdx))
	s.Columns = PingTable.AppendSlice(s.Columns, OverrideRows(overlay))
	return s
}

// RestoreInputs patches the delta-mutable columns of a snapshot over
// regenerated base inputs, returning the Inputs a post-delta context
// would report via Inputs(). The base dataset is cloned, never
// mutated; base.Ping gains the persisted override overlay.
//
// The schema checks each column's presence, kind, row count and name
// index; RestoreInputs adds what only the base can tell — that every
// vantage-point id is in the base campaign — because a snapshot from a
// different world can be internally consistent yet reference entities
// the base lacks.
func RestoreInputs(base Inputs, s *snapshot.Snap) (Inputs, error) {
	if base.Dataset == nil {
		return Inputs{}, fmt.Errorf("core: restore needs base dataset")
	}
	g := snapshot.NewGroup(s.Columns)
	names := nameTable.Read(g)
	ifaces := ifaceTable.Read(g)
	ports := portTable.Read(g)
	pings := PingTable.Read(g)
	if err := g.Err(); err != nil {
		return Inputs{}, fmt.Errorf("core: snapshot: %w", err)
	}

	ds := base.Dataset.Clone()
	ds.IfaceIXP = make(map[netip.Addr]string, len(ifaces))
	ds.IfaceASN = make(map[netip.Addr]netsim.ASN, len(ifaces))
	for _, r := range ifaces {
		ds.IfaceIXP[r.Iface] = names[r.IXP]
		ds.IfaceASN[r.Iface] = r.ASN
	}
	ds.Ports = PortMap(ports, names)
	base.Dataset = ds

	if len(pings) > 0 {
		if base.Ping == nil {
			return Inputs{}, fmt.Errorf("core: snapshot carries %d ping overrides but base has no campaign", len(pings))
		}
		byID := VPsByID(base.Ping.VPs)
		overlay := make(map[netip.Addr]pingsim.Override, len(pings))
		for i := range pings {
			r := &pings[i]
			if err := r.Resolve(byID); err != nil {
				return Inputs{}, fmt.Errorf("core: snapshot %v", err)
			}
			if r.BestVP == nil && !math.IsNaN(r.RTTMinMs) {
				return Inputs{}, fmt.Errorf("core: snapshot ping override for %s is measured (%v ms) but has no vantage point", r.Iface, r.RTTMinMs)
			}
			overlay[r.Iface] = r.Override
		}
		base.Ping = base.Ping.WithOverrides(overlay)
	}
	return base, nil
}
