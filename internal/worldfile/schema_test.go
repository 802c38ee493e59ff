package worldfile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/netsim"
	"rpeer/internal/snapshot"
	"rpeer/pkg/rpi"
)

type schema interface{ Columns() []snapshot.ColumnInfo }

// sectionSchemas lists each column-group section's tables in encode
// order; TestSectionMutations checks it against the encoded columns.
var sectionSchemas = []struct {
	name   string
	tables []schema
}{
	{secWorld, []schema{cityTable, facTable, ixpTable, asTable, rtrTable, memTable, privTable, resellerTable, pfxTable}},
	{secDataset, []schema{dsNameTable, dsPrefixTable, dsIfaceTable, dsPortTable, dsMinPortTable, dsStatsTable}},
	{secColo, []schema{coloASTable, coloIXPTable}},
	{secPing, []schema{vpTable, usableTable, rsTable, aggTable}},
	{secPaths, []schema{pathTable}},
	{secMeta, []schema{seedTable, speedTable}},
}

// sectionOrder is Encode's section order.
var sectionOrder = []string{secConfig, secWorld, secDataset, secColo, secPing, secPaths, secMeta}

// columnMutations returns the structural corruptions of one column the
// schema must catch: the column dropped (nil), shortened by one value,
// retyped, and for index and count columns a value out of range.
func columnMutations(c snapshot.Column, info snapshot.ColumnInfo) map[string]*snapshot.Column {
	short := c
	switch c.Kind {
	case snapshot.KindU32:
		short.U32 = c.U32[:len(c.U32)-1]
	case snapshot.KindU64:
		short.U64 = c.U64[:len(c.U64)-1]
	case snapshot.KindF64:
		short.F64 = c.F64[:len(c.F64)-1]
	case snapshot.KindU8:
		short.U8 = c.U8[:len(c.U8)-1]
	case snapshot.KindAddr:
		short.Addr = c.Addr[:len(c.Addr)-1]
	case snapshot.KindString:
		short.Str = c.Str[:len(c.Str)-1]
	}
	retyped := c
	retyped.Kind, retyped.U32, retyped.U64 = snapshot.KindU32, make([]uint32, c.Len()), make([]uint64, c.Len())
	if c.Kind == snapshot.KindU32 {
		retyped.Kind = snapshot.KindU64
	}
	out := map[string]*snapshot.Column{"drop": nil, "shorten": &short, "retype": &retyped}
	if info.Role != snapshot.RoleValue {
		bad := c
		bad.U32 = append([]uint32(nil), c.U32...)
		bad.U32[0] = 1 << 30
		out["out of range"] = &bad
	}
	return out
}

// TestSectionMutations drives a corruption matrix from the schema: every
// column of every column-group section is dropped, shortened, retyped
// and (index and count columns) pointed out of range, the section CRC
// is recomputed so the damage gets past the checksum layer, and Decode
// must answer with a typed error.
func TestSectionMutations(t *testing.T) {
	_, payloads, fp := tinySections(t)
	rebuild := func(name string, cols []snapshot.Column) []byte {
		secs := make([]section, len(sectionOrder))
		for i, s := range sectionOrder {
			secs[i] = section{s, payloads[s]}
			if s == name {
				secs[i].payload = snapshot.EncodeColumns(cols)
			}
		}
		return assemble(fp, secs)
	}
	if _, err := Decode(rebuild(secWorld, mustColumns(t, payloads[secWorld]))); err != nil {
		t.Fatalf("unmutated rebuild must decode: %v", err)
	}
	checked := 0
	for _, sec := range sectionSchemas {
		cols := mustColumns(t, payloads[sec.name])
		var infos []snapshot.ColumnInfo
		for _, tab := range sec.tables {
			infos = append(infos, tab.Columns()...)
		}
		if len(infos) != len(cols) {
			t.Fatalf("section %q: schema lists %d columns, encoding has %d", sec.name, len(infos), len(cols))
		}
		for i, info := range infos {
			if cols[i].Name != info.Name || cols[i].Kind != info.Kind {
				t.Fatalf("section %q column %d: encoded %q kind %d, schema says %q kind %d",
					sec.name, i, cols[i].Name, cols[i].Kind, info.Name, info.Kind)
			}
			if cols[i].Len() == 0 {
				t.Fatalf("section %q column %q is empty in the fixture; the matrix cannot shorten it", sec.name, info.Name)
			}
			for how, m := range columnMutations(cols[i], info) {
				mut := append([]snapshot.Column(nil), cols[:i]...)
				if m != nil {
					mut = append(mut, *m)
				}
				mut = append(mut, cols[i+1:]...)
				what := fmt.Sprintf("section %q column %q %s", sec.name, info.Name, how)
				_, err := Decode(rebuild(sec.name, mut))
				if !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrFingerprint) {
					t.Errorf("%s: got %v, want ErrInvalid or ErrFingerprint", what, err)
				}
				checked++
			}
		}
	}
	t.Logf("%d column mutations rejected", checked)
}

// tinySections encodes the tiny seed-42 bundle and splits its sections.
func tinySections(t testing.TB) (core.Inputs, map[string][]byte, uint64) {
	t.Helper()
	in, err := rpi.InputsFromConfig(netsim.TinyConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	payloads, fp, err := splitSections(b)
	if err != nil {
		t.Fatal(err)
	}
	return in, payloads, fp
}

// TestDecodeWorldRejectsBadRouterIDs: router IDs index a dense table,
// so a negative or huge one must be refused — not index out of range,
// nor size a multi-gigabyte slice. (Found by FuzzDecodeColumns.)
func TestDecodeWorldRejectsBadRouterIDs(t *testing.T) {
	in, payloads, _ := tinySections(t)
	for _, id := range []uint32{0xFFFFFFFF, 0x7FFFFFFF, 0} {
		cols := mustColumns(t, payloads[secWorld])
		for i := range cols {
			if cols[i].Name == "rtr.id" {
				cols[i].U32[1] = id // 0 duplicates router 0
			}
		}
		if _, err := decodeWorld(in.World.Cfg, snapshot.EncodeColumns(cols)); !errors.Is(err, ErrInvalid) {
			t.Errorf("router id %#x: got %v, want ErrInvalid", id, err)
		}
	}
}

// TestDecodeWorldRejectsSharedIface: two routers claiming one
// interface address leave its owner undefined, so a world section that
// does so (CRC and all valid) must be refused.
func TestDecodeWorldRejectsSharedIface(t *testing.T) {
	in, payloads, _ := tinySections(t)
	if _, err := decodeWorld(in.World.Cfg, sharedIfaceWorld(t, payloads[secWorld])); !errors.Is(err, ErrInvalid) {
		t.Fatalf("got %v, want ErrInvalid", err)
	}
}

// sharedIfaceWorld rewrites a world section so router 1's first
// interface repeats router 0's first interface.
func sharedIfaceWorld(t testing.TB, payload []byte) []byte {
	t.Helper()
	cols := mustColumns(t, payload)
	var n, addrs *snapshot.Column
	for i := range cols {
		switch cols[i].Name {
		case "rtr.ifaces.n":
			n = &cols[i]
		case "rtr.ifaces":
			addrs = &cols[i]
		}
	}
	if n == nil || addrs == nil || n.U32[0] == 0 || n.U32[1] == 0 {
		t.Fatal("fixture lacks two routers with interfaces")
	}
	addrs.Addr[n.U32[0]] = addrs.Addr[0]
	return snapshot.EncodeColumns(cols)
}

func mustColumns(t testing.TB, payload []byte) []snapshot.Column {
	t.Helper()
	cols, err := snapshot.DecodeColumns(payload)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}

// FuzzDecodeColumns feeds arbitrary column groups to the shared column
// reader and every schema-driven decoder: each must accept or answer
// ErrInvalid, never panic or over-allocate, and an accepted group must
// re-encode to the same bytes. Seeds are every column-group section of
// a real .rpw file, a real checkpoint (core.DumpColumns) group and a
// world section in which two routers claim one interface.
func FuzzDecodeColumns(f *testing.F) {
	in, payloads, _ := tinySections(f)
	for _, name := range sectionOrder[1:] {
		f.Add(payloads[name])
	}
	ctx, err := core.NewContext(in)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snapshot.EncodeColumns(ctx.DumpColumns().Columns))
	f.Add(sharedIfaceWorld(f, payloads[secWorld]))

	decoders := map[string]func([]byte) error{
		secWorld:   func(p []byte) error { _, err := decodeWorld(in.World.Cfg, p); return err },
		secDataset: func(p []byte) error { _, err := decodeDataset(p); return err },
		secColo:    func(p []byte) error { _, err := decodeColo(p); return err },
		secPing:    func(p []byte) error { _, err := decodePing(p); return err },
		secPaths:   func(p []byte) error { _, err := decodePaths(p); return err },
		secMeta:    func(p []byte) error { return decodeMeta(p, &core.Inputs{}) },
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, err := snapshot.DecodeColumns(data)
		if err != nil {
			if !errors.Is(err, snapshot.ErrInvalid) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if !bytes.Equal(snapshot.EncodeColumns(cols), data) {
			t.Fatal("accepted column group does not re-encode to its bytes")
		}
		for name, dec := range decoders {
			if err := dec(data); err != nil && !errors.Is(err, ErrInvalid) {
				t.Fatalf("section %q: untyped error %v", name, err)
			}
		}
		_, _ = core.RestoreInputs(in, &snapshot.Snap{Columns: cols})
	})
}
