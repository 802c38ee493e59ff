package rpi

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"rpeer/internal/core"
)

// WireVersion is the current report wire-schema version. The golden
// test in wire_test.go pins the serialized form: any schema change
// must bump this constant and regenerate the golden on purpose.
const WireVersion = 1

// WireReport is the versioned JSON form of a Report. Inferences are
// ordered by (IXP, interface) and routers by (ASN, first interface),
// so marshalling is deterministic: two equal reports produce identical
// bytes.
type WireReport struct {
	Version int         `json:"version"`
	Summary WireSummary `json:"summary"`
	// Inferences holds one entry per known membership.
	Inferences []WireInference `json:"inferences"`
	// Routers lists the classified multi-IXP routers.
	Routers []WireRouter `json:"multi_ixp_routers,omitempty"`
}

// WireSummary is the headline verdict count.
type WireSummary struct {
	Total   int `json:"total"`
	Local   int `json:"local"`
	Remote  int `json:"remote"`
	Unknown int `json:"unknown"`
}

// WireInference is one membership verdict on the wire.
type WireInference struct {
	IXP   string `json:"ixp"`
	Iface string `json:"iface"`
	ASN   uint32 `json:"asn"`
	Class string `json:"class"`
	Step  string `json:"step,omitempty"`
	// RTTMinMs is omitted for unmeasured interfaces (JSON has no NaN).
	RTTMinMs *float64 `json:"rtt_min_ms,omitempty"`
	// FeasibleIXPFacilities is omitted when Step 3 did not run.
	FeasibleIXPFacilities *int `json:"feasible_ixp_facilities,omitempty"`
	TraceRTT              bool `json:"trace_rtt,omitempty"`
}

// WireRouter is one multi-IXP router on the wire.
type WireRouter struct {
	ASN    uint32   `json:"asn"`
	Ifaces []string `json:"ifaces"`
	IXPs   []string `json:"ixps"`
	Class  string   `json:"class"`
}

// ToWire converts a report to its wire form.
func ToWire(rep *Report) *WireReport {
	w := &WireReport{Version: WireVersion}
	w.Inferences = make([]WireInference, 0, len(rep.Inferences))
	for k, inf := range rep.Inferences {
		wi := WireInference{
			IXP:   k.IXP,
			Iface: k.Iface.String(),
			ASN:   uint32(inf.ASN),
			Class: inf.Class.String(),
			Step:  stepName(inf.Step),
		}
		if !math.IsNaN(inf.RTTMinMs) {
			v := inf.RTTMinMs
			wi.RTTMinMs = &v
		}
		if inf.FeasibleIXPFacilities >= 0 {
			v := inf.FeasibleIXPFacilities
			wi.FeasibleIXPFacilities = &v
		}
		wi.TraceRTT = inf.TraceRTT
		w.Inferences = append(w.Inferences, wi)
		switch inf.Class {
		case core.ClassLocal:
			w.Summary.Local++
		case core.ClassRemote:
			w.Summary.Remote++
		default:
			w.Summary.Unknown++
		}
	}
	w.Summary.Total = len(w.Inferences)
	w.Inferences = sortInferences(w.Inferences)
	for _, r := range rep.MultiRouters {
		wr := WireRouter{ASN: uint32(r.ASN), Class: r.Class.String()}
		for _, ip := range r.Ifaces {
			wr.Ifaces = append(wr.Ifaces, ip.String())
		}
		wr.IXPs = append(wr.IXPs, r.IXPs...)
		w.Routers = append(w.Routers, wr)
	}
	sort.Slice(w.Routers, func(i, j int) bool {
		if w.Routers[i].ASN != w.Routers[j].ASN {
			return w.Routers[i].ASN < w.Routers[j].ASN
		}
		return w.Routers[i].Ifaces[0] < w.Routers[j].Ifaces[0]
	})
	return w
}

// sortInferences returns the inferences ordered by (IXP, interface).
// It sorts compact keys, not the entries: the first 16 bytes of the
// interface string, zero-padded into two big-endian words, order as
// the string does (a shorter prefix first), so the strings themselves
// are compared only when those words tie.
func sortInferences(infs []WireInference) []WireInference {
	type key struct {
		ixp    string
		hi, lo uint64
		i      int32
	}
	keys := make([]key, len(infs))
	for i := range infs {
		var b [16]byte
		copy(b[:], infs[i].Iface)
		keys[i] = key{infs[i].IXP, binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.ixp != b.ixp:
			return strings.Compare(a.ixp, b.ixp)
		case a.hi != b.hi:
			return cmp.Compare(a.hi, b.hi)
		case a.lo != b.lo:
			return cmp.Compare(a.lo, b.lo)
		}
		return strings.Compare(infs[a.i].Iface, infs[b.i].Iface)
	})
	out := make([]WireInference, len(infs))
	for j, k := range keys {
		out[j] = infs[k.i]
	}
	return out
}

// MarshalReport serializes a report to the versioned JSON wire form.
// The output is deterministic: equal reports marshal to equal bytes
// (the rpi-serve API contract, pinned by the golden test).
func MarshalReport(rep *Report) ([]byte, error) {
	return encodeWire(ToWire(rep))
}

// MarshalReportCtx is MarshalReport with a cancellation checkpoint
// before each of the two expensive phases (wire conversion, JSON
// encoding): a handler whose client already disconnected returns
// ErrCanceled instead of marshalling a multi-megabyte report nobody
// will read.
func MarshalReportCtx(ctx context.Context, rep *Report) ([]byte, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	w := ToWire(rep)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return encodeWire(w)
}

// wireInferenceBytes is a per-inference size estimate above the ~180
// bytes a typical entry takes, so one allocation holds the whole
// report.
const wireInferenceBytes = 192

// encodeWire writes w exactly as json.MarshalIndent(w, "", " ") would
// (omitempty fields, null for a nil list, HTML-safe string escaping,
// encoding/json's float format) into one buffer, with no reflection.
// FuzzWireEncode holds it to encoding/json as the oracle. A non-finite
// RTT is an error, as it is for encoding/json.
func encodeWire(w *WireReport) ([]byte, error) {
	b := make([]byte, 0, 256+wireInferenceBytes*(len(w.Inferences)+len(w.Routers)))
	b = append(b, "{\n \"version\": "...)
	b = strconv.AppendInt(b, int64(w.Version), 10)
	b = append(b, ",\n \"summary\": {\n  \"total\": "...)
	b = strconv.AppendInt(b, int64(w.Summary.Total), 10)
	b = append(b, ",\n  \"local\": "...)
	b = strconv.AppendInt(b, int64(w.Summary.Local), 10)
	b = append(b, ",\n  \"remote\": "...)
	b = strconv.AppendInt(b, int64(w.Summary.Remote), 10)
	b = append(b, ",\n  \"unknown\": "...)
	b = strconv.AppendInt(b, int64(w.Summary.Unknown), 10)
	b = append(b, "\n },\n \"inferences\": "...)
	switch {
	case w.Inferences == nil:
		b = append(b, "null"...)
	case len(w.Inferences) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range w.Inferences {
			inf := &w.Inferences[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n  {\n   \"ixp\": "...)
			b = appendString(b, inf.IXP)
			b = append(b, ",\n   \"iface\": "...)
			b = appendString(b, inf.Iface)
			b = append(b, ",\n   \"asn\": "...)
			b = strconv.AppendUint(b, uint64(inf.ASN), 10)
			b = append(b, ",\n   \"class\": "...)
			b = appendString(b, inf.Class)
			if inf.Step != "" {
				b = append(b, ",\n   \"step\": "...)
				b = appendString(b, inf.Step)
			}
			if inf.RTTMinMs != nil {
				f := *inf.RTTMinMs
				if math.IsInf(f, 0) || math.IsNaN(f) {
					return nil, fmt.Errorf("rpi: marshal report: unsupported RTT %v at %s %s", f, inf.IXP, inf.Iface)
				}
				b = append(b, ",\n   \"rtt_min_ms\": "...)
				b = appendFloat(b, f)
			}
			if inf.FeasibleIXPFacilities != nil {
				b = append(b, ",\n   \"feasible_ixp_facilities\": "...)
				b = strconv.AppendInt(b, int64(*inf.FeasibleIXPFacilities), 10)
			}
			if inf.TraceRTT {
				b = append(b, ",\n   \"trace_rtt\": true"...)
			}
			b = append(b, "\n  }"...)
		}
		b = append(b, "\n ]"...)
	}
	if len(w.Routers) > 0 {
		b = append(b, ",\n \"multi_ixp_routers\": ["...)
		for i := range w.Routers {
			r := &w.Routers[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n  {\n   \"asn\": "...)
			b = strconv.AppendUint(b, uint64(r.ASN), 10)
			b = append(b, ",\n   \"ifaces\": "...)
			b = appendStrings(b, r.Ifaces)
			b = append(b, ",\n   \"ixps\": "...)
			b = appendStrings(b, r.IXPs)
			b = append(b, ",\n   \"class\": "...)
			b = appendString(b, r.Class)
			b = append(b, "\n  }"...)
		}
		b = append(b, "\n ]"...)
	}
	return append(b, "\n}"...), nil
}

// appendStrings appends a string list held at the routers' field depth.
func appendStrings(b []byte, ss []string) []byte {
	switch {
	case ss == nil:
		return append(b, "null"...)
	case len(ss) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    "...)
		b = appendString(b, s)
	}
	return append(b, "\n   ]"...)
}

// appendFloat formats a finite float as encoding/json does: like
// strconv 'f', switching to 'e' below 1e-6 and at 1e21 and above, with
// a two-digit negative exponent shortened (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string with encoding/json's
// HTML-safe escaping: quote, backslash and control bytes escaped (\b,
// \f, \n, \r, \t by name, the rest as \u00XX), <, > and & as \u003c,
// \u003e and \u0026, U+2028 and U+2029 as \u2028 and \u2029, and each
// invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// UnmarshalReport parses a wire report, rejecting unknown schema
// versions with ErrWireVersion.
func UnmarshalReport(b []byte) (*WireReport, error) {
	var w WireReport
	if err := json.Unmarshal(b, &w); err != nil {
		return nil, fmt.Errorf("rpi: parse wire report: %w", err)
	}
	if w.Version != WireVersion {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrWireVersion, w.Version, WireVersion)
	}
	return &w, nil
}
