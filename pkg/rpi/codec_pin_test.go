package rpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"net/netip"
	"sort"
	"testing"

	"rpeer/internal/core"
	"rpeer/internal/pingsim"
)

// The two durable engine formats are pinned by content hash: the
// checkpoint column group (core.DumpColumns) and the WAL delta record.
// A change to either hash is a format change, which needs a version
// bump and a migration, never a silent re-pin.
const (
	checkpointSHA256 = "fb15693c8c82e3279c343613e7787310171638473fb80d264b5313d104b59dfb"
	walRecordSHA256  = "91ae43657ffecaaf46a5c71a58a724b6eacd1656c7512bb1760f58ee0a8a4e88"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// pinnedDelta is one fixed resolved delta covering every record row
// kind: a join, a leave, a measured override and a revocation.
func pinnedDelta() Delta {
	return Delta{
		Joins:  []Join{{IXP: "DE-CIX Frankfurt", Iface: netip.MustParseAddr("80.81.192.10"), ASN: 64500, PortMbps: 10000}},
		Leaves: []Key{{IXP: "AMS-IX", Iface: netip.MustParseAddr("2001:7f8:1::a506:4501:1")}},
		Ping: map[netip.Addr]pingsim.Override{
			netip.MustParseAddr("80.81.192.20"): {RTTMinMs: 0.75, BestVP: &pingsim.VP{ID: 7}, BestRoundsUp: true, AnyRounding: true},
			netip.MustParseAddr("80.81.192.30"): {RTTMinMs: math.NaN()},
		},
	}
}

func TestWALRecordBytesPinned(t *testing.T) {
	if got := sha(encodeDelta(pinnedDelta())); got != walRecordSHA256 {
		t.Fatalf("WAL record sha256 = %s, want %s", got, walRecordSHA256)
	}
}

// TestCheckpointBytesPinned dumps a context after a fixed churn
// history plus one measured ping override.
func TestCheckpointBytesPinned(t *testing.T) {
	in := tinyInputs(t)
	fp := core.Fingerprint(in)
	in.Dataset = in.Dataset.Clone()
	ctx, err := core.NewContext(in)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		if err := ctx.Apply(ChurnDelta(ctx.Inputs(), 0.02, seed)); err != nil {
			t.Fatal(err)
		}
	}
	ifaces := make([]netip.Addr, 0, len(in.Dataset.IfaceIXP))
	for ip := range ctx.Inputs().Dataset.IfaceIXP {
		ifaces = append(ifaces, ip)
	}
	sort.Slice(ifaces, func(i, j int) bool { return ifaces[i].Less(ifaces[j]) })
	ov := Delta{Ping: map[netip.Addr]pingsim.Override{
		ifaces[0]: {RTTMinMs: 1.25, BestVP: in.Ping.VPs[0], BestRoundsUp: true},
	}}
	if err := ctx.Apply(ov); err != nil {
		t.Fatal(err)
	}
	snap := ctx.DumpColumns()
	snap.Seq, snap.Fingerprint = 4, fp
	if got := sha(snap.Encode()); got != checkpointSHA256 {
		t.Fatalf("checkpoint sha256 = %s, want %s", got, checkpointSHA256)
	}
}

// TestDecodeDeltaHugeCount: a record claiming 0x7FFFFFFF ping rows in
// no bytes must be refused before the count sizes an allocation.
func TestDecodeDeltaHugeCount(t *testing.T) {
	rec := []byte{recVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeDelta(rec, nil); err == nil {
		t.Fatal("decodeDelta accepted a record claiming 0x7FFFFFFF pings in 0 bytes")
	}
}

// FuzzDecodeDelta feeds arbitrary WAL records to the record decoder:
// it must accept or refuse without panicking or over-allocating, and an
// accepted record must round-trip through encodeDelta stably.
func FuzzDecodeDelta(f *testing.F) {
	f.Add(encodeDelta(pinnedDelta()))
	vps := map[uint32]*pingsim.VP{7: {ID: 7}}
	f.Fuzz(func(t *testing.T, rec []byte) {
		d, err := decodeDelta(rec, vps)
		if err != nil {
			return
		}
		again := encodeDelta(d)
		d2, err := decodeDelta(again, vps)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !bytes.Equal(encodeDelta(d2), again) {
			t.Fatal("record does not round-trip stably")
		}
	})
}
