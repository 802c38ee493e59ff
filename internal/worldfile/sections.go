package worldfile

import (
	"encoding/json"
	"fmt"
	"math"
	"net/netip"
	"sort"

	"rpeer/internal/core"
	"rpeer/internal/geo"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/registry"
	"rpeer/internal/snapshot"
	"rpeer/internal/traix"
)

// This file declares each section's entity tables in the snapshot
// schema and maps the input bundle onto them. Encoding is
// deterministic: map-backed data is emitted in sorted natural-key
// order, slice-backed data in slice order (which generation fixes), so
// the same bundle always encodes byte-identical. The schema checks
// every column's kind, row count, list length and name index; the
// decoders here add the checks only the bundle can make (VP references,
// speed-model sanity). Failures wrap ErrInvalid — the checksum layer
// has already run, so anything caught here is a malformed writer, not
// bit rot.

// invalid wraps a schema or bundle error as ErrInvalid.
func invalid(err error) error { return fmt.Errorf("%w: %v", ErrInvalid, err) }

// ptrs returns pointers to the elements of a decoded row slab.
func ptrs[T any](slab []T) []*T {
	out := make([]*T, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out
}

// ---------------------------------------------------------------------------
// config

func encodeConfig(cfg netsim.Config) ([]byte, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("worldfile: encode config: %w", err)
	}
	return b, nil
}

func decodeConfig(payload []byte) (netsim.Config, error) {
	var cfg netsim.Config
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return netsim.Config{}, fmt.Errorf("%w: config: %v", ErrInvalid, err)
	}
	return cfg, nil
}

// ---------------------------------------------------------------------------
// world

type pfxRow struct {
	ASN    netsim.ASN
	Prefix netip.Prefix
}

var (
	cityTable = snapshot.Table[netsim.City]{
		snapshot.Str("city.name", func(c *netsim.City) *string { return &c.Name }),
		snapshot.Str("city.country", func(c *netsim.City) *string { return &c.Country }),
		snapshot.F64("city.lat", func(c *netsim.City) *float64 { return &c.Loc.Lat }),
		snapshot.F64("city.lon", func(c *netsim.City) *float64 { return &c.Loc.Lon }),
		snapshot.F64("city.weight", func(c *netsim.City) *float64 { return &c.Weight }),
	}
	facTable = snapshot.Table[netsim.Facility]{
		snapshot.U32("fac.id", func(f *netsim.Facility) *netsim.FacilityID { return &f.ID }),
		snapshot.Str("fac.name", func(f *netsim.Facility) *string { return &f.Name }),
		snapshot.Str("fac.city", func(f *netsim.Facility) *string { return &f.City }),
		snapshot.Str("fac.country", func(f *netsim.Facility) *string { return &f.Country }),
		snapshot.F64("fac.lat", func(f *netsim.Facility) *float64 { return &f.Loc.Lat }),
		snapshot.F64("fac.lon", func(f *netsim.Facility) *float64 { return &f.Loc.Lon }),
	}
	ixpTable = snapshot.Table[netsim.IXP]{
		snapshot.U32("ixp.id", func(x *netsim.IXP) *netsim.IXPID { return &x.ID }),
		snapshot.Str("ixp.name", func(x *netsim.IXP) *string { return &x.Name }),
		snapshot.Prefix("ixp.lan", func(x *netsim.IXP) *netip.Prefix { return &x.PeeringLAN }),
		snapshot.Prefix("ixp.mgmt", func(x *netsim.IXP) *netip.Prefix { return &x.MgmtLAN }),
		snapshot.Addr("ixp.rs", func(x *netsim.IXP) *netip.Addr { return &x.RouteServer }),
		snapshot.U32("ixp.minport", func(x *netsim.IXP) *int { return &x.MinPortMbps }),
		snapshot.U32("ixp.fed", func(x *netsim.IXP) *int { return &x.FederationID }),
		snapshot.U32("ixp.atlas", func(x *netsim.IXP) *int { return &x.AtlasProbes }),
		snapshot.Flags("ixp.flags",
			func(x *netsim.IXP) *bool { return &x.AllowsResellers },
			func(x *netsim.IXP) *bool { return &x.HasLG },
			func(x *netsim.IXP) *bool { return &x.WideArea }),
		snapshot.U32List("ixp.facs", func(x *netsim.IXP) *[]netsim.FacilityID { return &x.Facilities }),
		snapshot.U32List("ixp.portopts", func(x *netsim.IXP) *[]int { return &x.PortOptionsMbps }),
	}
	asTable = snapshot.Table[netsim.AS]{
		snapshot.U32("as.asn", func(a *netsim.AS) *netsim.ASN { return &a.ASN }),
		snapshot.Str("as.name", func(a *netsim.AS) *string { return &a.Name }),
		snapshot.Str("as.country", func(a *netsim.AS) *string { return &a.Country }),
		snapshot.Str("as.homecity", func(a *netsim.AS) *string { return &a.HomeCity }),
		snapshot.F64("as.homelat", func(a *netsim.AS) *float64 { return &a.HomeLoc.Lat }),
		snapshot.F64("as.homelon", func(a *netsim.AS) *float64 { return &a.HomeLoc.Lon }),
		snapshot.F64("as.traffic", func(a *netsim.AS) *float64 { return &a.TrafficMbps }),
		snapshot.U8("as.tier", func(a *netsim.AS) *int { return &a.Tier }),
		snapshot.Flags("as.flags", func(a *netsim.AS) *bool { return &a.IsReseller }),
		snapshot.U32List("as.facs", func(a *netsim.AS) *[]netsim.FacilityID { return &a.Facilities }),
		snapshot.U32List("as.providers", func(a *netsim.AS) *[]netsim.ASN { return &a.Providers }),
		snapshot.U32List("as.pops", func(a *netsim.AS) *[]netsim.FacilityID { return &a.ResellerPOPs }),
	}
	rtrTable = snapshot.Table[netsim.Router]{
		snapshot.U32("rtr.id", func(r *netsim.Router) *netsim.RouterID { return &r.ID }),
		snapshot.U32("rtr.owner", func(r *netsim.Router) *netsim.ASN { return &r.Owner }),
		snapshot.U32("rtr.fac", func(r *netsim.Router) *netsim.FacilityID { return &r.Facility }),
		snapshot.F64("rtr.lat", func(r *netsim.Router) *float64 { return &r.Loc.Lat }),
		snapshot.F64("rtr.lon", func(r *netsim.Router) *float64 { return &r.Loc.Lon }),
		snapshot.U32("rtr.ipidinit", func(r *netsim.Router) *uint32 { return &r.IPIDInit }),
		snapshot.F64("rtr.ipidrate", func(r *netsim.Router) *float64 { return &r.IPIDRate }),
		snapshot.AddrList("rtr.ifaces", func(r *netsim.Router) *[]netip.Addr { return &r.Ifaces }),
		snapshot.U32List("rtr.ixps", func(r *netsim.Router) *[]netsim.IXPID { return &r.IXPs }),
	}
	memTable = snapshot.Table[netsim.Member]{
		snapshot.U32("mem.asn", func(m *netsim.Member) *netsim.ASN { return &m.ASN }),
		snapshot.U32("mem.ixp", func(m *netsim.Member) *netsim.IXPID { return &m.IXP }),
		snapshot.Addr("mem.iface", func(m *netsim.Member) *netip.Addr { return &m.Iface }),
		snapshot.U32("mem.router", func(m *netsim.Member) *netsim.RouterID { return &m.Router }),
		snapshot.U32("mem.port", func(m *netsim.Member) *int { return &m.PortMbps }),
		snapshot.U8("mem.kind", func(m *netsim.Member) *netsim.ConnKind { return &m.Kind }),
		snapshot.U32("mem.reseller", func(m *netsim.Member) *netsim.ASN { return &m.Reseller }),
		snapshot.U32("mem.viafed", func(m *netsim.Member) *netsim.IXPID { return &m.ViaFed }),
	}
	privTable = snapshot.Table[netsim.PrivateLink]{
		snapshot.U32("priv.a", func(p *netsim.PrivateLink) *netsim.RouterID { return &p.A }),
		snapshot.U32("priv.b", func(p *netsim.PrivateLink) *netsim.RouterID { return &p.B }),
		snapshot.Addr("priv.aiface", func(p *netsim.PrivateLink) *netip.Addr { return &p.AIface }),
		snapshot.Addr("priv.biface", func(p *netsim.PrivateLink) *netip.Addr { return &p.BIface }),
		snapshot.U32("priv.fac", func(p *netsim.PrivateLink) *netsim.FacilityID { return &p.Facility }),
	}
	resellerTable = snapshot.Table[netsim.ASN]{snapshot.U32("reseller.asn", snapshot.Self[netsim.ASN])}
	pfxTable      = snapshot.Table[pfxRow]{
		snapshot.U32("pfx.asn", func(p *pfxRow) *netsim.ASN { return &p.ASN }),
		snapshot.Prefix("pfx.prefix", func(p *pfxRow) *netip.Prefix { return &p.Prefix }),
	}
)

func encodeWorld(w *netsim.World) []byte {
	p := w.Parts()
	var cols []snapshot.Column
	cols = cityTable.AppendSlice(cols, p.Cities)
	cols = facTable.Append(cols, len(p.Facilities), func(i int) *netsim.Facility { return p.Facilities[i] })
	cols = ixpTable.Append(cols, len(p.IXPs), func(i int) *netsim.IXP { return p.IXPs[i] })
	cols = asTable.Append(cols, len(p.ASes), func(i int) *netsim.AS { return p.ASes[i] })
	cols = rtrTable.Append(cols, len(p.Routers), func(i int) *netsim.Router { return p.Routers[i] })
	cols = memTable.Append(cols, len(p.Members), func(i int) *netsim.Member { return p.Members[i] })
	cols = privTable.AppendSlice(cols, p.Private)
	cols = resellerTable.AppendSlice(cols, p.Resellers)
	// Infrastructure prefixes, in sorted-ASN order (Parts order).
	var pfxs []pfxRow
	for _, as := range p.ASes {
		for _, pfx := range p.Prefixes[as.ASN] {
			pfxs = append(pfxs, pfxRow{ASN: as.ASN, Prefix: pfx})
		}
	}
	cols = pfxTable.AppendSlice(cols, pfxs)
	return snapshot.EncodeColumns(cols)
}

func decodeWorld(cfg netsim.Config, payload []byte) (*netsim.World, error) {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return nil, invalid(err)
	}
	parts := netsim.WorldParts{
		Cfg:        cfg,
		Cities:     cityTable.Read(g),
		Facilities: ptrs(facTable.Read(g)),
		IXPs:       ptrs(ixpTable.Read(g)),
		ASes:       ptrs(asTable.Read(g)),
		Routers:    ptrs(rtrTable.Read(g)),
		Members:    ptrs(memTable.Read(g)),
		Private:    privTable.Read(g),
		Resellers:  resellerTable.Read(g),
		Prefixes:   make(map[netsim.ASN][]netip.Prefix),
	}
	for _, r := range pfxTable.Read(g) {
		parts.Prefixes[r.ASN] = append(parts.Prefixes[r.ASN], r.Prefix)
	}
	if err := g.Err(); err != nil {
		return nil, invalid(err)
	}
	if len(parts.Resellers) == 0 {
		parts.Resellers = nil // generation appends, so none is nil
	}
	w, err := netsim.FromParts(parts)
	if err != nil {
		return nil, invalid(err)
	}
	return w, nil
}

// ---------------------------------------------------------------------------
// dataset

// The dataset's membership and port rows share the checkpoint's tables
// (core.IfaceTable, core.PortTable); every IXP-valued row indexes one
// shared name table.
type (
	dsPrefixRow struct {
		Prefix netip.Prefix
		IXP    uint32
	}
	dsMinPortRow struct {
		IXP  uint32
		Mbps int
	}
)

var (
	dsNameTable   = snapshot.Table[string]{snapshot.Str("ds.name", snapshot.Self[string])}
	dsPrefixTable = snapshot.Table[dsPrefixRow]{
		snapshot.Prefix("ds.pfx.prefix", func(r *dsPrefixRow) *netip.Prefix { return &r.Prefix }),
		snapshot.Index("ds.pfx.ixp", "ds.name", func(r *dsPrefixRow) *uint32 { return &r.IXP }),
	}
	dsIfaceTable   = core.IfaceTable("ds.if", "ds.name")
	dsPortTable    = core.PortTable("ds.port", "ds.name")
	dsMinPortTable = snapshot.Table[dsMinPortRow]{
		snapshot.Index("ds.minport.ixp", "ds.name", func(r *dsMinPortRow) *uint32 { return &r.IXP }),
		snapshot.U64("ds.minport.mbps", func(r *dsMinPortRow) *int { return &r.Mbps }),
	}
	dsStatsTable = snapshot.Table[registry.SourceStats]{
		snapshot.U8("ds.stats.src", func(s *registry.SourceStats) *registry.Source { return &s.Source }),
		snapshot.U32("ds.stats.pfx", func(s *registry.SourceStats) *int { return &s.Prefixes }),
		snapshot.U32("ds.stats.upfx", func(s *registry.SourceStats) *int { return &s.UniquePrefixes }),
		snapshot.U32("ds.stats.cpfx", func(s *registry.SourceStats) *int { return &s.ConflictPrefixes }),
		snapshot.U32("ds.stats.if", func(s *registry.SourceStats) *int { return &s.Interfaces }),
		snapshot.U32("ds.stats.uif", func(s *registry.SourceStats) *int { return &s.UniqueInterfaces }),
		snapshot.U32("ds.stats.cif", func(s *registry.SourceStats) *int { return &s.ConflictInterfaces }),
	}
)

func encodeDataset(ds *registry.Dataset) []byte {
	// Shared IXP name table: every name any row references, sorted.
	nameSet := make(map[string]struct{})
	for _, name := range ds.PrefixIXP {
		nameSet[name] = struct{}{}
	}
	for _, name := range ds.IfaceIXP {
		nameSet[name] = struct{}{}
	}
	for k := range ds.Ports {
		nameSet[k.IXP] = struct{}{}
	}
	for name := range ds.MinPort {
		nameSet[name] = struct{}{}
	}
	names, nameIdx := snapshot.Names(nameSet)

	// Prefix plane, sorted by prefix string.
	pfxs := make([]dsPrefixRow, 0, len(ds.PrefixIXP))
	for p, name := range ds.PrefixIXP {
		pfxs = append(pfxs, dsPrefixRow{Prefix: p, IXP: nameIdx[name]})
	}
	sort.Slice(pfxs, func(i, j int) bool { return pfxs[i].Prefix.String() < pfxs[j].Prefix.String() })

	// Interface records, sorted by address.
	ifaces := make([]core.IfaceRow, 0, len(ds.IfaceIXP))
	for a, name := range ds.IfaceIXP {
		ifaces = append(ifaces, core.IfaceRow{Iface: a, ASN: ds.IfaceASN[a], IXP: nameIdx[name]})
	}
	sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Iface.Less(ifaces[j].Iface) })

	// Advertised minimum ports, sorted by IXP name (= index order).
	mins := make([]dsMinPortRow, 0, len(ds.MinPort))
	for name, mbps := range ds.MinPort {
		mins = append(mins, dsMinPortRow{IXP: nameIdx[name], Mbps: mbps})
	}
	sort.Slice(mins, func(i, j int) bool { return mins[i].IXP < mins[j].IXP })

	cols := dsNameTable.AppendSlice(nil, names)
	cols = dsPrefixTable.AppendSlice(cols, pfxs)
	cols = dsIfaceTable.AppendSlice(cols, ifaces)
	cols = dsPortTable.AppendSlice(cols, core.PortRows(ds.Ports, nameIdx))
	cols = dsMinPortTable.AppendSlice(cols, mins)
	cols = dsStatsTable.AppendSlice(cols, ds.Stats) // stored (preference) order
	return snapshot.EncodeColumns(cols)
}

func decodeDataset(payload []byte) (*registry.Dataset, error) {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return nil, invalid(err)
	}
	names := dsNameTable.Read(g)
	pfxs := dsPrefixTable.Read(g)
	ifaces := dsIfaceTable.Read(g)
	ports := dsPortTable.Read(g)
	mins := dsMinPortTable.Read(g)
	ds := &registry.Dataset{Stats: dsStatsTable.Read(g)}
	if err := g.Err(); err != nil {
		return nil, invalid(err)
	}
	ds.PrefixIXP = make(map[netip.Prefix]string, len(pfxs))
	for _, r := range pfxs {
		ds.PrefixIXP[r.Prefix] = names[r.IXP]
	}
	ds.IfaceASN = make(map[netip.Addr]netsim.ASN, len(ifaces))
	ds.IfaceIXP = make(map[netip.Addr]string, len(ifaces))
	for _, r := range ifaces {
		ds.IfaceASN[r.Iface] = r.ASN
		ds.IfaceIXP[r.Iface] = names[r.IXP]
	}
	ds.Ports = core.PortMap(ports, names)
	ds.MinPort = make(map[string]int, len(mins))
	for _, r := range mins {
		ds.MinPort[names[r.IXP]] = r.Mbps
	}
	return ds, nil
}

// ---------------------------------------------------------------------------
// colo

type (
	coloASRow struct {
		ASN  netsim.ASN
		Facs []netsim.FacilityID
	}
	coloIXPRow struct {
		Name string
		Facs []netsim.FacilityID
	}
)

// facList is a colo facility list under the section's own names
// ("colo.as.n" + "colo.as.fac"). Present-with-no-facilities decodes as
// a nil slice, matching what registry.BuildColo produces.
func facList[R any](count, flat string, get func(*R) *[]netsim.FacilityID) snapshot.Field[R] {
	return snapshot.List(count, get, snapshot.Table[netsim.FacilityID]{snapshot.U32(flat, snapshot.Self[netsim.FacilityID])})
}

var (
	coloASTable = snapshot.Table[coloASRow]{
		snapshot.U32("colo.as.asn", func(r *coloASRow) *netsim.ASN { return &r.ASN }),
		facList("colo.as.n", "colo.as.fac", func(r *coloASRow) *[]netsim.FacilityID { return &r.Facs }),
	}
	coloIXPTable = snapshot.Table[coloIXPRow]{
		snapshot.Str("colo.ixp.name", func(r *coloIXPRow) *string { return &r.Name }),
		facList("colo.ixp.n", "colo.ixp.fac", func(r *coloIXPRow) *[]netsim.FacilityID { return &r.Facs }),
	}
)

func encodeColo(colo *registry.ColoDB) []byte {
	ases := make([]coloASRow, 0, len(colo.ASFacilities))
	for asn, facs := range colo.ASFacilities {
		ases = append(ases, coloASRow{ASN: asn, Facs: facs})
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i].ASN < ases[j].ASN })
	ixps := make([]coloIXPRow, 0, len(colo.IXPFacilities))
	for name, facs := range colo.IXPFacilities {
		ixps = append(ixps, coloIXPRow{Name: name, Facs: facs})
	}
	sort.Slice(ixps, func(i, j int) bool { return ixps[i].Name < ixps[j].Name })
	cols := coloASTable.AppendSlice(nil, ases)
	return snapshot.EncodeColumns(coloIXPTable.AppendSlice(cols, ixps))
}

func decodeColo(payload []byte) (*registry.ColoDB, error) {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return nil, invalid(err)
	}
	ases, ixps := coloASTable.Read(g), coloIXPTable.Read(g)
	if err := g.Err(); err != nil {
		return nil, invalid(err)
	}
	colo := &registry.ColoDB{
		ASFacilities:  make(map[netsim.ASN][]netsim.FacilityID, len(ases)),
		IXPFacilities: make(map[string][]netsim.FacilityID, len(ixps)),
	}
	for _, r := range ases {
		colo.ASFacilities[r.ASN] = r.Facs
	}
	for _, r := range ixps {
		colo.IXPFacilities[r.Name] = r.Facs
	}
	return colo, nil
}

// ---------------------------------------------------------------------------
// ping

// vpRow is one roster VP, hidden ground-truth attributes included
// (restored rosters must still drive re-campaigns).
type vpRow struct {
	pingsim.VP
	Hidden pingsim.VPHidden
}

type rsRow struct {
	VP  int
	RTT float64
}

var (
	vpTable = snapshot.Table[vpRow]{
		snapshot.U32("vp.id", func(r *vpRow) *int { return &r.ID }),
		snapshot.U32("vp.ixp", func(r *vpRow) *netsim.IXPID { return &r.IXP }),
		snapshot.U8("vp.kind", func(r *vpRow) *pingsim.VPKind { return &r.Kind }),
		snapshot.U32("vp.fac", func(r *vpRow) *netsim.FacilityID { return &r.Facility }),
		snapshot.F64("vp.lat", func(r *vpRow) *float64 { return &r.Loc.Lat }),
		snapshot.F64("vp.lon", func(r *vpRow) *float64 { return &r.Loc.Lon }),
		snapshot.PackedAddr("vp.src", func(r *vpRow) *netip.Addr { return &r.SrcIP }),
		snapshot.Len[vpRow]("vp.src.n"),
		snapshot.Flags("vp.flags",
			func(r *vpRow) *bool { return &r.RoundsUp },
			func(r *vpRow) *bool { return &r.Hidden.MgmtLAN },
			func(r *vpRow) *bool { return &r.Hidden.Dead }),
		snapshot.F64("vp.mgmtextra", func(r *vpRow) *float64 { return &r.Hidden.MgmtExtraMs }),
	}
	usableTable = snapshot.Table[int]{snapshot.U32("vp.usable", snapshot.Self[int])}
	rsTable     = snapshot.Table[rsRow]{
		snapshot.U32("rs.vp", func(r *rsRow) *int { return &r.VP }),
		snapshot.F64("rs.rtt", func(r *rsRow) *float64 { return &r.RTT }),
	}
	aggTable = core.OverrideTable("agg.iface", "agg")
)

func encodePing(r *pingsim.Result) []byte {
	vps := make([]vpRow, len(r.VPs))
	for i, vp := range r.VPs {
		vps[i] = vpRow{VP: *vp, Hidden: vp.Hidden()}
	}
	usable := make([]int, len(r.UsableVPs))
	for i, vp := range r.UsableVPs {
		usable[i] = vp.ID
	}
	// Route-server RTTs, sorted by VP id.
	rs := make([]rsRow, 0, len(r.RouteServerRTT))
	for id, rtt := range r.RouteServerRTT {
		rs = append(rs, rsRow{VP: id, RTT: rtt})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].VP < rs[j].VP })
	// Folded per-interface aggregates, in address order (AggRows). Any
	// override overlay is already folded in by the index — a decoded
	// campaign starts with a clean overlay over these aggregates.
	rows := r.AggRows()
	aggs := make([]core.OverrideRow, len(rows))
	for i, row := range rows {
		aggs[i] = core.NewOverrideRow(row.Iface, pingsim.Override(*row.Agg))
	}
	cols := vpTable.AppendSlice(nil, vps)
	cols = usableTable.AppendSlice(cols, usable)
	cols = rsTable.AppendSlice(cols, rs)
	return snapshot.EncodeColumns(aggTable.AppendSlice(cols, aggs))
}

func decodePing(payload []byte) (*pingsim.Result, error) {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return nil, invalid(err)
	}
	rows := vpTable.Read(g)
	usable := usableTable.Read(g)
	rsRows := rsTable.Read(g)
	aggRows := aggTable.Read(g)
	if err := g.Err(); err != nil {
		return nil, invalid(err)
	}
	vps := make([]*pingsim.VP, len(rows))
	for i := range rows {
		vps[i] = &rows[i].VP
		vps[i].SetHidden(rows[i].Hidden)
	}
	byID := core.VPsByID(vps)
	rs := make(map[int]float64, len(rsRows))
	for _, r := range rsRows {
		if byID[uint32(r.VP)] == nil {
			return nil, fmt.Errorf("%w: route-server RTT for unknown VP %d", ErrInvalid, r.VP)
		}
		rs[r.VP] = r.RTT
	}
	aggSlab := make([]pingsim.IfaceAgg, len(aggRows))
	aggs := make(map[netip.Addr]*pingsim.IfaceAgg, len(aggRows))
	for i := range aggRows {
		if err := aggRows[i].Resolve(byID); err != nil {
			return nil, invalid(err)
		}
		aggSlab[i] = pingsim.IfaceAgg(aggRows[i].Override)
		aggs[aggRows[i].Iface] = &aggSlab[i]
	}
	r, err := pingsim.RestoredResult(vps, usable, rs, aggs)
	if err != nil {
		return nil, invalid(err)
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// paths

// pathTable stores the corpus as per-path columns plus one hop slab:
// "path.hops.n" counts each path's hops in "hop.ip" and "hop.rtt".
// Decoded paths share one contiguous hop slab — 1024x carries tens of
// millions of hops, and per-path slices would fragment the heap.
var pathTable = snapshot.Table[traix.Path]{
	snapshot.U32("path.src", func(p *traix.Path) *netsim.ASN { return &p.SrcASN }),
	snapshot.PackedAddr("path.dst", func(p *traix.Path) *netip.Addr { return &p.Dst }),
	snapshot.List("path.hops.n", func(p *traix.Path) *[]traix.Hop { return &p.Hops }, snapshot.Table[traix.Hop]{
		snapshot.PackedAddr("hop.ip", func(h *traix.Hop) *netip.Addr { return &h.IP }),
		snapshot.F64("hop.rtt", func(h *traix.Hop) *float64 { return &h.RTTMs }),
	}),
}

func encodePaths(paths []*traix.Path) []byte {
	return snapshot.EncodeColumns(pathTable.Append(nil, len(paths), func(i int) *traix.Path { return paths[i] }))
}

func decodePaths(payload []byte) ([]*traix.Path, error) {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return nil, invalid(err)
	}
	paths := pathTable.Read(g)
	if err := g.Err(); err != nil {
		return nil, invalid(err)
	}
	return ptrs(paths), nil
}

// ---------------------------------------------------------------------------
// meta

var (
	seedTable  = snapshot.Table[int64]{snapshot.U64("seed", snapshot.Self[int64])}
	speedTable = snapshot.Table[float64]{snapshot.F64("speed", snapshot.Self[float64])}
)

func encodeMeta(in core.Inputs) []byte {
	cols := seedTable.AppendSlice(nil, []int64{in.Seed})
	cols = speedTable.AppendSlice(cols, []float64{in.Speed.VMaxKmPerMs, in.Speed.A, in.Speed.B})
	return snapshot.EncodeColumns(cols)
}

func decodeMeta(payload []byte, in *core.Inputs) error {
	g, err := snapshot.ReadGroup(payload)
	if err != nil {
		return invalid(err)
	}
	seed, speed := seedTable.Read(g), speedTable.Read(g)
	if err := g.Err(); err != nil {
		return invalid(err)
	}
	if len(seed) != 1 || len(speed) != 3 {
		return fmt.Errorf("%w: meta section has %d seed and %d speed values", ErrInvalid, len(seed), len(speed))
	}
	for _, v := range speed {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN speed-model parameter", ErrInvalid)
		}
	}
	in.Seed = seed[0]
	in.Speed = geo.SpeedModel{VMaxKmPerMs: speed[0], A: speed[1], B: speed[2]}
	return nil
}
