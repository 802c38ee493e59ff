package snapshot

import (
	"errors"
	"net/netip"
	"testing"

	"rpeer/internal/wal"
)

func sample() *Snap {
	return &Snap{Seq: 12, Fingerprint: 0xfeedface, Columns: []Column{
		{Name: "iface.addr", Kind: KindAddr, Addr: []netip.Addr{
			netip.MustParseAddr("185.0.0.9"),
			netip.MustParseAddr("2001:db8::1"),
		}},
		{Name: "iface.asn", Kind: KindU32, U32: []uint32{64500, 64501}},
		{Name: "ping.rtt", Kind: KindF64, F64: []float64{0.42, 117.5}},
		{Name: "ixp.names", Kind: KindString, Str: []string{"Frankfurt-IX", "Tokyo-IX"}},
		{Name: "flags", Kind: KindU8, U8: []uint8{1, 0}},
		{Name: "seqs", Kind: KindU64, U64: []uint64{1, 1 << 40}},
	}}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sample()
	got, err := Decode(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != s.Seq || got.Fingerprint != s.Fingerprint || len(got.Columns) != len(s.Columns) {
		t.Fatalf("manifest mismatch: %+v", got)
	}
	if got.Col("iface.addr").Addr[1] != netip.MustParseAddr("2001:db8::1") {
		t.Fatal("address column mangled")
	}
	if got.Col("ixp.names").Str[0] != "Frankfurt-IX" {
		t.Fatal("string column mangled")
	}
	if got.Col("ping.rtt").F64[1] != 117.5 {
		t.Fatal("float column mangled")
	}
	// Deterministic bytes: same snapshot encodes identically.
	if string(s.Encode()) != string(sample().Encode()) {
		t.Fatal("encoding is not deterministic")
	}
}

// TestEveryFlipDetected flips each byte of an encoded snapshot and
// expects validation to fail — the trailing CRC covers the whole file.
func TestEveryFlipDetected(t *testing.T) {
	enc := sample().Encode()
	for pos := range enc {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0xff
		if _, err := Decode(bad); !errors.Is(err, ErrInvalid) {
			t.Fatalf("flip at %d: err = %v, want ErrInvalid", pos, err)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); !errors.Is(err, ErrInvalid) {
			t.Fatalf("truncate to %d: err = %v, want ErrInvalid", cut, err)
		}
	}
}

func TestWriteLatestAndFallback(t *testing.T) {
	fsys := wal.NewMemFS()
	if err := fsys.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	a := sample()
	a.Seq = 5
	if _, err := Write(fsys, "d", a); err != nil {
		t.Fatal(err)
	}
	b := sample()
	b.Seq = 9
	if _, err := Write(fsys, "d", b); err != nil {
		t.Fatal(err)
	}

	got, name, skipped, ok, err := Latest(fsys, "d", ^uint64(0))
	if err != nil || !ok || got.Seq != 9 || len(skipped) != 0 {
		t.Fatalf("Latest = %v seq=%d name=%s skipped=%v ok=%v", err, got.Seq, name, skipped, ok)
	}

	// Bounded by maxSeq: time-travel to seq 7 must pick the seq-5 one.
	got, _, _, ok, err = Latest(fsys, "d", 7)
	if err != nil || !ok || got.Seq != 5 {
		t.Fatalf("Latest(<=7) seq = %d, want 5", got.Seq)
	}

	// Corrupt the newest: Latest falls back to the older valid one and
	// reports the skip.
	raw, _ := fsys.ReadFile("d/" + FileName(9))
	raw[len(raw)/2] ^= 0xff
	fsys.WriteFile("d/"+FileName(9), raw)
	got, _, skipped, ok, err = Latest(fsys, "d", ^uint64(0))
	if err != nil || !ok || got.Seq != 5 || len(skipped) != 1 {
		t.Fatalf("fallback: seq=%d skipped=%v ok=%v err=%v", got.Seq, skipped, ok, err)
	}
}

// TestPublishIsAtomic crashes at every mutating-op index during a
// Write and verifies the directory never holds a half-published
// snapshot: after power failure either the old state or the fully
// valid new snapshot is visible.
func TestPublishIsAtomic(t *testing.T) {
	for crashAt := 1; ; crashAt++ {
		fsys := wal.NewMemFS()
		if err := fsys.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		old := sample()
		old.Seq = 3
		if _, err := Write(fsys, "d", old); err != nil {
			t.Fatal(err)
		}
		baseline := fsys.Ops()

		fsys.InjectAt(crashAt, wal.Fault{Mode: wal.FaultCrash})
		nu := sample()
		nu.Seq = 8
		_, err := Write(fsys, "d", nu)
		crashed := fsys.Crashed()
		fsys.PowerFail(0)

		got, _, _, ok, lerr := Latest(fsys, "d", ^uint64(0))
		if lerr != nil || !ok {
			t.Fatalf("crash at op %d: recovery found no snapshot (%v)", crashAt, lerr)
		}
		if got.Seq != 3 && got.Seq != 8 {
			t.Fatalf("crash at op %d: recovered seq %d", crashAt, got.Seq)
		}
		if err == nil && !crashed {
			// The write outran the injection point: matrix exhausted.
			if fsys.Ops()-baseline < crashAt {
				return
			}
			if got.Seq != 8 {
				t.Fatalf("clean write at op %d left old snapshot current", crashAt)
			}
		}
	}
}

// TestHugeCountRejected: a decoded count must not size an allocation
// before it is checked against the bytes left. Each input claims ~4G
// values in a few bytes; the decoder must answer ErrInvalid instead of
// trying to allocate tens of gigabytes.
func TestHugeCountRejected(t *testing.T) {
	for name, b := range map[string][]byte{
		// 1 column "huge", KindF64, 0xFFFFFFFF values: 15 bytes.
		"values":  {1, 0, 0, 0, 4, 0, 'h', 'u', 'g', 'e', byte(KindF64), 0xff, 0xff, 0xff, 0xff},
		"columns": {0xff, 0xff, 0xff, 0xff},
	} {
		if _, err := DecodeColumns(b); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
}
