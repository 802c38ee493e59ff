package core

import (
	"math"
	"net/netip"
	"testing"

	"rpeer/internal/pingsim"
	"rpeer/internal/snapshot"
)

// TestPersistRoundTrip is the dump/restore contract behind crash
// recovery: columns dumped from a churned context, pushed through the
// snapshot wire format, and restored over the pristine base inputs
// must yield a cold report byte-identical to the live context's.
func TestPersistRoundTrip(t *testing.T) {
	in := deltaInputs(t)
	base := in
	base.Dataset = in.Dataset.Clone() // pristine copy; ctx mutates in's

	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	d := churnDelta(t, in, 30, 30)
	pcfg := pingsim.DefaultCampaign()
	pcfg.Seed = 4321
	d.Ping = pingsim.Overrides(pingsim.Run(in.World, in.Ping.VPs, pcfg))
	// Include a measurement revocation so the NoPingVP/NaN path
	// round-trips too.
	for ip := range d.Ping {
		d.Ping[ip] = pingsim.Override{RTTMinMs: math.NaN()}
		break
	}
	if err := ctx.Apply(d); err != nil {
		t.Fatal(err)
	}
	// A second, stacked delta: the dump must capture cumulative state.
	if err := ctx.Apply(churnDelta(t, ctx.Inputs(), 10, 10)); err != nil {
		t.Fatal(err)
	}

	snap := ctx.DumpColumns()
	snap.Seq = 2
	snap.Fingerprint = Fingerprint(base)

	// Same history, same bytes: the dump order is pinned by intern-ID
	// and natural-key order, not map iteration.
	again := ctx.DumpColumns()
	again.Seq, again.Fingerprint = snap.Seq, snap.Fingerprint
	if string(snap.Encode()) != string(again.Encode()) {
		t.Fatal("DumpColumns is not deterministic")
	}

	decoded, err := snapshot.Decode(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreInputs(base, decoded)
	if err != nil {
		t.Fatal(err)
	}

	warm, err := ctx.Run(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(restored, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "dump-restore", cold, warm)
}

// TestRestoreInputsValidation exercises the referential-integrity
// checks: a structurally valid snapshot referencing entities the base
// lacks must be rejected, not half-applied.
func TestRestoreInputsValidation(t *testing.T) {
	in := deltaInputs(t)
	ctx, err := NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.Apply(churnDelta(t, in, 5, 5)); err != nil {
		t.Fatal(err)
	}
	// One measured override so the ping columns are populated.
	for ip := range in.Dataset.IfaceIXP {
		d := Delta{Ping: map[netip.Addr]pingsim.Override{
			ip: {RTTMinMs: 0.7, BestVP: in.Ping.VPs[0]},
		}}
		if err := ctx.Apply(d); err != nil {
			t.Fatal(err)
		}
		break
	}

	// Each mutation is re-encoded (recomputing the file CRC), so it gets
	// past the checksum layer and must be caught by the schema or by
	// RestoreInputs.
	mutate := func(f func(s *snapshot.Snap)) error {
		s := ctx.DumpColumns()
		f(s)
		s, err := snapshot.Decode(s.Encode())
		if err != nil {
			return err
		}
		_, err = RestoreInputs(in, s)
		return err
	}
	if err := mutate(func(s *snapshot.Snap) {}); err != nil {
		t.Fatalf("unmutated dump must restore: %v", err)
	}
	cases := map[string]func(s *snapshot.Snap){
		"missing column": func(s *snapshot.Snap) {
			s.Columns = s.Columns[1:]
		},
		"iface ixp index out of range": func(s *snapshot.Snap) {
			c := s.Col("iface.ixp")
			if len(c.U32) == 0 {
				t.Fatal("no membership rows")
			}
			c.U32[0] = 1 << 30
		},
		"ragged column group": func(s *snapshot.Snap) {
			c := s.Col("iface.asn")
			c.U32 = c.U32[:len(c.U32)-1]
		},
		"unknown vantage point": func(s *snapshot.Snap) {
			c := s.Col("ping.vp")
			if len(c.U32) == 0 {
				t.Fatal("no ping rows")
			}
			c.U32[0] = 123456789
		},
	}
	// Schema-driven cases: every column DumpColumns emits is dropped,
	// shortened by one value, retyped and (index columns) pointed out
	// of range.
	var infos []snapshot.ColumnInfo
	for _, tab := range []interface{ Columns() []snapshot.ColumnInfo }{nameTable, ifaceTable, portTable, PingTable} {
		infos = append(infos, tab.Columns()...)
	}
	if dump := ctx.DumpColumns(); len(dump.Columns) != len(infos) {
		t.Fatalf("schema lists %d columns, DumpColumns emits %d", len(infos), len(dump.Columns))
	}
	for i, info := range infos {
		cases[info.Name+" dropped"] = func(s *snapshot.Snap) {
			s.Columns = append(s.Columns[:i], s.Columns[i+1:]...)
		}
		cases[info.Name+" shortened"] = func(s *snapshot.Snap) {
			c := &s.Columns[i]
			if c.Len() == 0 {
				t.Fatalf("column %q is empty in the fixture", c.Name)
			}
			c.U32, c.U64, c.F64, c.U8 = trim(c.U32), trim(c.U64), trim(c.F64), trim(c.U8)
			c.Addr, c.Str = trim(c.Addr), trim(c.Str)
		}
		cases[info.Name+" retyped"] = func(s *snapshot.Snap) {
			c := &s.Columns[i]
			n := c.Len()
			c.U32, c.U64 = make([]uint32, n), make([]uint64, n)
			if c.Kind == snapshot.KindU32 {
				c.Kind = snapshot.KindU64
			} else {
				c.Kind = snapshot.KindU32
			}
		}
		if info.Role == snapshot.RoleIndex {
			cases[info.Name+" out of range"] = func(s *snapshot.Snap) { s.Columns[i].U32[0] = 1 << 30 }
		}
	}
	for name, f := range cases {
		if err := mutate(f); err == nil {
			t.Errorf("%s: restore succeeded, want error", name)
		}
	}
}

func TestFingerprint(t *testing.T) {
	in := deltaInputs(t)
	if Fingerprint(in) != Fingerprint(in) {
		t.Fatal("fingerprint is not deterministic")
	}
	other := in
	other.Seed = in.Seed + 1
	if Fingerprint(other) == Fingerprint(in) {
		t.Fatal("seed change did not move the fingerprint")
	}
}

// trim drops a slice's last element (nil stays nil).
func trim[T any](v []T) []T {
	if len(v) == 0 {
		return v
	}
	return v[:len(v)-1]
}
