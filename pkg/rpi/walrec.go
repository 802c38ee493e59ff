package rpi

import (
	"fmt"
	"net/netip"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// WAL record codec: one applied delta per record, written row by row
// through the snapshot schema (JSON cannot carry the NaN that marks a
// measurement revocation). Vantage points are persisted by ID — the
// record must stay meaningful across processes, and the base campaign
// regenerates the same VP roster deterministically.
//
//	u8 record version
//	u32 #joins    | per join:  addr, u32 asn, u32 portMbps, name
//	u32 #leaves   | per leave: addr, name
//	u32 #pings    | per row:   addr, u64 rttBits, u32 vpID, u8 flags
//
// where addr is a u8 length (4 or 16) + raw bytes and name is a u16
// length + UTF-8; a ping row is core.PingTable's fields in order. Ping
// rows are sorted by address so that the same delta always encodes to
// the same bytes (map iteration order must not leak into what lands on
// disk).

// recVersion is the current WAL record layout version.
const recVersion = 1

var (
	joinTable = snapshot.Table[Join]{
		snapshot.Addr("iface", func(j *Join) *netip.Addr { return &j.Iface }),
		snapshot.U32("asn", func(j *Join) *netsim.ASN { return &j.ASN }),
		snapshot.U32("port", func(j *Join) *int { return &j.PortMbps }),
		snapshot.Str("ixp", func(j *Join) *string { return &j.IXP }),
	}
	leaveTable = snapshot.Table[Key]{
		snapshot.Addr("iface", func(k *Key) *netip.Addr { return &k.Iface }),
		snapshot.Str("ixp", func(k *Key) *string { return &k.IXP }),
	}
)

// encodeDelta serializes a resolved delta (measured overrides carry
// their vantage point; Apply resolves before logging).
func encodeDelta(d Delta) []byte {
	b := make([]byte, 0, 64+32*(len(d.Joins)+len(d.Leaves)+len(d.Ping)))
	b = append(b, recVersion)
	b = joinTable.AppendRows(b, d.Joins)
	b = leaveTable.AppendRows(b, d.Leaves)
	return core.PingTable.AppendRows(b, core.OverrideRows(d.Ping))
}

// decodeDelta parses one WAL record, resolving persisted vantage-point
// IDs against the base campaign roster.
func decodeDelta(payload []byte, vpByID map[uint32]*pingsim.VP) (Delta, error) {
	rd := snapshot.NewReader(payload)
	if v := rd.U8(); v > recVersion {
		return Delta{}, fmt.Errorf("record version %d is newer than supported %d", v, recVersion)
	}
	out := Delta{Joins: joinTable.ReadRows(rd), Leaves: leaveTable.ReadRows(rd)}
	pings := core.PingTable.ReadRows(rd)
	if err := rd.Err(); err != nil {
		return Delta{}, fmt.Errorf("record: %w", err)
	}
	if rd.Len() != 0 {
		return Delta{}, fmt.Errorf("record has %d trailing bytes", rd.Len())
	}
	if len(pings) > 0 {
		out.Ping = make(map[netip.Addr]pingsim.Override, len(pings))
	}
	for i := range pings {
		if err := pings[i].Resolve(vpByID); err != nil {
			return Delta{}, fmt.Errorf("record: %w", err)
		}
		out.Ping[pings[i].Iface] = pings[i].Override
	}
	return out, nil
}
