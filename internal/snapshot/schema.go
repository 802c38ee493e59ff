package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"sort"
)

// This file is the one column codec every durable format shares: the
// .rpw world sections, engine checkpoints and WAL delta records.
//
// An entity table is declared once, as a Table — an ordered list of
// fields, each a column name, a kind and a typed accessor into the row
// struct — and that declaration drives both directions:
//
//   - columnar: Append emits one column per field, Read checks and
//     decodes them back into a row slab;
//   - row-major: AppendRows/ReadRows write a u32 row count followed by
//     each row's fields in declaration order (the WAL record layout).
//
// The schema owns every structural check, so a new column is checked by
// construction: a column is present with its declared kind, parallel
// columns agree on the row count, an Index value is in range of the
// column it indexes, and a list's flat column holds exactly the sum of
// its counts. Lists follow one convention: a "<name>.n" u32 count
// column parallel to the rows, then the flat value column(s).
// Booleans pack into one u8 flags column, bit i for the i-th accessor.
//
// Decoded counts are bounded before they drive an allocation: a count
// whose values cannot fit in the bytes left (at each kind's minimum
// encoded size) is rejected with ErrInvalid, so a crafted input with a
// valid checksum cannot ask for gigabytes.

// Reader is a bounds-checked little-endian reader. The first error
// sticks: later reads return zero values, and Err reports it.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Bytes returns the next n bytes (aliasing the input).
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) u16() uint16 {
	if b := r.Bytes(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str reads a u16-length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes(int(r.u16()))) }

// Addr reads a u8-length-prefixed address (4 or 16 bytes).
func (r *Reader) Addr() netip.Addr { return r.addr(false) }

// addr reads an address; with zero set, length 0 is the zero Addr.
func (r *Reader) addr(zero bool) netip.Addr {
	raw := r.Bytes(int(r.U8()))
	if raw == nil || (zero && len(raw) == 0) {
		return netip.Addr{}
	}
	a, ok := netip.AddrFromSlice(raw)
	if !ok {
		r.fail(fmt.Errorf("bad address of %d bytes", len(raw)))
	}
	return a
}

// Count reads a u32 element count and rejects it unless count values
// of at least minSize bytes each fit in the bytes left.
func (r *Reader) Count(minSize int) int {
	n := int(r.U32())
	if r.err == nil && n*minSize > len(r.b) {
		r.fail(fmt.Errorf("count %d needs at least %d bytes, %d remain", n, n*minSize, len(r.b)))
	}
	if r.err != nil {
		return 0
	}
	return n
}

func appendAddr(b []byte, a netip.Addr) []byte {
	raw := a.AsSlice()
	b = append(b, byte(len(raw)))
	return append(b, raw...)
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Role says what a column's values mean to the schema's checks.
type Role uint8

// Column roles.
const (
	// RoleValue columns carry data only.
	RoleValue Role = iota
	// RoleIndex columns hold positions into the column named by Ref.
	RoleIndex
	// RoleCount columns hold list lengths (or a row count) that the
	// schema checks against another column.
	RoleCount
)

// ColumnInfo describes one column a table emits.
type ColumnInfo struct {
	Name string
	Kind Kind
	Role Role
	// Ref names the indexed column of a RoleIndex column.
	Ref string
}

// Group is a decoded column group read through table schemas. The
// first error sticks; later reads return nil.
type Group struct {
	cols []Column
	err  error
}

// NewGroup wraps decoded columns.
func NewGroup(cols []Column) *Group { return &Group{cols: cols} }

// ReadGroup decodes a column group written by EncodeColumns.
func ReadGroup(payload []byte) (*Group, error) {
	cols, err := DecodeColumns(payload)
	if err != nil {
		return nil, err
	}
	return NewGroup(cols), nil
}

// Err returns the first decode error, wrapping ErrInvalid.
func (g *Group) Err() error { return g.err }

// fail records a decode error unless one is already recorded.
func (g *Group) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
	}
}

func (g *Group) find(name string) *Column {
	for i := range g.cols {
		if g.cols[i].Name == name {
			return &g.cols[i]
		}
	}
	g.fail("missing column %q", name)
	return nil
}

// col returns the named column if it has the wanted kind.
func (g *Group) col(name string, kind Kind) *Column {
	c := g.find(name)
	if c != nil && c.Kind != kind {
		g.fail("column %q has kind %d, want %d", name, c.Kind, kind)
		return nil
	}
	return c
}

// Field is one field of an entity table over rows of type R: one
// column, or for lists a count column plus the element columns. Build
// fields with the constructors below.
type Field[R any] struct {
	cols []ColumnInfo
	// parallel marks fields whose first column holds one value per row.
	parallel bool
	encode   func(dst []Column, n int, row func(int) *R) []Column
	decode   func(g *Group, rows []R)
	// Row-major form: minimum encoded size, writer and reader. Only
	// scalar fields have one.
	size int
	put  func(b []byte, r *R) []byte
	take func(rd *Reader, r *R)
}

// Table is the schema of one entity table: its fields in column order.
type Table[R any] []Field[R]

// Columns lists the columns the table emits, in order.
func (t Table[R]) Columns() []ColumnInfo {
	var out []ColumnInfo
	for _, f := range t {
		out = append(out, f.cols...)
	}
	return out
}

// Append encodes n rows (row(i) is the i-th) as the table's columns.
func (t Table[R]) Append(dst []Column, n int, row func(int) *R) []Column {
	for _, f := range t {
		dst = f.encode(dst, n, row)
	}
	return dst
}

// AppendSlice encodes a row slice.
func (t Table[R]) AppendSlice(dst []Column, rows []R) []Column {
	return t.Append(dst, len(rows), func(i int) *R { return &rows[i] })
}

// Read decodes the table's rows out of g into one slab. It returns nil
// once g holds an error.
func (t Table[R]) Read(g *Group) []R { return t.read(g, -1) }

// read decodes the rows; want >= 0 is the row count the caller expects
// (a list's sum of counts), checked before the slab is allocated.
func (t Table[R]) read(g *Group, want int) []R {
	n := want
	for _, f := range t {
		if !f.parallel || g.err != nil {
			continue
		}
		if c := g.col(f.cols[0].Name, f.cols[0].Kind); c != nil && n < 0 {
			n = c.Len()
		} else if c != nil && c.Len() != n {
			g.fail("column %q has %d values, want %d", c.Name, c.Len(), n)
		}
	}
	if g.err != nil {
		return nil
	}
	rows := make([]R, max(n, 0))
	for _, f := range t {
		if f.decode(g, rows); g.err != nil {
			return nil
		}
	}
	return rows
}

// AppendRows writes rows row-major: a u32 count, then each row's
// fields in declaration order.
func (t Table[R]) AppendRows(b []byte, rows []R) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for i := range rows {
		for _, f := range t {
			b = f.put(b, &rows[i])
		}
	}
	return b
}

// ReadRows reads rows written by AppendRows; nil when there are none
// or rd fails.
func (t Table[R]) ReadRows(rd *Reader) []R {
	size := 0
	for _, f := range t {
		size += f.size
	}
	n := rd.Count(size)
	if n == 0 {
		return nil
	}
	rows := make([]R, n)
	for i := range rows {
		for _, f := range t {
			f.take(rd, &rows[i])
		}
	}
	return rows
}

// Self is the accessor of a table whose rows are bare values.
func Self[T any](v *T) *T { return v }

// integer is the set of Go types an integer column can back.
type integer interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64 | ~int | ~int32 | ~int64
}

// intField builds an integer field stored as V.
func intField[R any, T integer, V uint8 | uint32 | uint64](name string, kind Kind, size int, get func(*R) *T,
	vals func(*Column) *[]V, put func([]byte, V) []byte, take func(*Reader) V) Field[R] {
	return Field[R]{
		cols:     []ColumnInfo{{Name: name, Kind: kind}},
		parallel: true,
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			c := Column{Name: name, Kind: kind}
			v := make([]V, n)
			for i := range v {
				v[i] = V(*get(row(i)))
			}
			*vals(&c) = v
			return append(dst, c)
		},
		decode: func(g *Group, rows []R) {
			for i, v := range *vals(g.col(name, kind)) {
				*get(&rows[i]) = T(v)
			}
		},
		size: size,
		put:  func(b []byte, r *R) []byte { return put(b, V(*get(r))) },
		take: func(rd *Reader, r *R) { *get(r) = T(take(rd)) },
	}
}

// valueField builds a field stored as its own Go type.
func valueField[R, V any](name string, kind Kind, size int, get func(*R) *V,
	vals func(*Column) *[]V, put func([]byte, V) []byte, take func(*Reader) V) Field[R] {
	return Field[R]{
		cols:     []ColumnInfo{{Name: name, Kind: kind}},
		parallel: true,
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			c := Column{Name: name, Kind: kind}
			v := make([]V, n)
			for i := range v {
				v[i] = *get(row(i))
			}
			*vals(&c) = v
			return append(dst, c)
		},
		decode: func(g *Group, rows []R) {
			for i, v := range *vals(g.col(name, kind)) {
				*get(&rows[i]) = v
			}
		},
		size: size,
		put:  func(b []byte, r *R) []byte { return put(b, *get(r)) },
		take: func(rd *Reader, r *R) { *get(r) = take(rd) },
	}
}

func u8s(c *Column) *[]uint8        { return &c.U8 }
func u32s(c *Column) *[]uint32      { return &c.U32 }
func u64s(c *Column) *[]uint64      { return &c.U64 }
func f64s(c *Column) *[]float64     { return &c.F64 }
func addrs(c *Column) *[]netip.Addr { return &c.Addr }
func strs(c *Column) *[]string      { return &c.Str }

// U8 is an integer field stored as a u8 column.
func U8[R any, T integer](name string, get func(*R) *T) Field[R] {
	return intField(name, KindU8, 1, get, u8s, func(b []byte, v uint8) []byte { return append(b, v) }, (*Reader).U8)
}

// U32 is an integer field stored as a u32 column. Signed values wrap
// (int32(-1) is stored as 0xFFFFFFFF and read back as -1).
func U32[R any, T integer](name string, get func(*R) *T) Field[R] {
	return intField(name, KindU32, 4, get, u32s, binary.LittleEndian.AppendUint32, (*Reader).U32)
}

// U64 is an integer field stored as a u64 column.
func U64[R any, T integer](name string, get func(*R) *T) Field[R] {
	return intField(name, KindU64, 8, get, u64s, binary.LittleEndian.AppendUint64, (*Reader).U64)
}

// F64 is a float field stored as its IEEE-754 bits (NaN survives).
func F64[R any](name string, get func(*R) *float64) Field[R] {
	put := func(b []byte, v float64) []byte { return binary.LittleEndian.AppendUint64(b, math.Float64bits(v)) }
	return valueField(name, KindF64, 8, get, f64s, put, (*Reader).F64)
}

// Addr is an address field; the zero Addr is not encodable.
func Addr[R any](name string, get func(*R) *netip.Addr) Field[R] {
	return valueField(name, KindAddr, 5, get, addrs, appendAddr, (*Reader).Addr)
}

// Str is a string field.
func Str[R any](name string, get func(*R) *string) Field[R] {
	return valueField(name, KindString, 2, get, strs, appendStr, (*Reader).Str)
}

// Flags packs boolean fields into one u8 column: bit i holds bits[i].
func Flags[R any](name string, bits ...func(*R) *bool) Field[R] {
	pack := func(r *R) uint8 {
		var fl uint8
		for i, bit := range bits {
			if *bit(r) {
				fl |= 1 << i
			}
		}
		return fl
	}
	unpack := func(r *R, fl uint8) {
		for i, bit := range bits {
			*bit(r) = fl&(1<<i) != 0
		}
	}
	return Field[R]{
		cols:     []ColumnInfo{{Name: name, Kind: KindU8}},
		parallel: true,
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			v := make([]uint8, n)
			for i := range v {
				v[i] = pack(row(i))
			}
			return append(dst, Column{Name: name, Kind: KindU8, U8: v})
		},
		decode: func(g *Group, rows []R) {
			for i, fl := range g.col(name, KindU8).U8 {
				unpack(&rows[i], fl)
			}
		},
		size: 1,
		put:  func(b []byte, r *R) []byte { return append(b, pack(r)) },
		take: func(rd *Reader, r *R) { unpack(r, rd.U8()) },
	}
}

// Prefix is a prefix field stored in its string form.
func Prefix[R any](name string, get func(*R) *netip.Prefix) Field[R] {
	return Field[R]{
		cols:     []ColumnInfo{{Name: name, Kind: KindString}},
		parallel: true,
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			v := make([]string, n)
			for i := range v {
				v[i] = get(row(i)).String()
			}
			return append(dst, Column{Name: name, Kind: KindString, Str: v})
		},
		decode: func(g *Group, rows []R) {
			for i, s := range g.col(name, KindString).Str {
				p, err := netip.ParsePrefix(s)
				if err != nil {
					g.fail("column %q row %d: %v", name, i, err)
					return
				}
				*get(&rows[i]) = p
			}
		},
	}
}

// Index is a u32 field holding positions into the column named ref
// (a name table); Read rejects a position out of its range.
func Index[R any, T integer](name, ref string, get func(*R) *T) Field[R] {
	f := U32(name, get)
	f.cols[0].Role, f.cols[0].Ref = RoleIndex, ref
	decode := f.decode
	f.decode = func(g *Group, rows []R) {
		target := g.find(ref)
		if target == nil {
			return
		}
		for i, v := range g.col(name, KindU32).U32 {
			if int(v) >= target.Len() {
				g.fail("column %q row %d indexes %d of %d %q values", name, i, v, target.Len(), ref)
				return
			}
		}
		decode(g, rows)
	}
	return f
}

// List is a variable-length list field: a u32 count column named count
// (one value per row), then the elem table's columns over all rows'
// elements concatenated. Decoded lists share one slab; an empty list
// decodes as nil. The elem table needs a parallel column: its length
// is what bounds the slab the counts ask for.
func List[R, E any](count string, get func(*R) *[]E, elem Table[E]) Field[R] {
	if !slices.ContainsFunc(elem, func(f Field[E]) bool { return f.parallel }) {
		panic("snapshot: list " + count + " has no parallel element column")
	}
	return Field[R]{
		cols:     append([]ColumnInfo{{Name: count, Kind: KindU32, Role: RoleCount}}, elem.Columns()...),
		parallel: true,
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			counts := make([]uint32, n)
			var flat []*E
			for i := range counts {
				l := *get(row(i))
				counts[i] = uint32(len(l))
				for j := range l {
					flat = append(flat, &l[j])
				}
			}
			dst = append(dst, Column{Name: count, Kind: KindU32, U32: counts})
			return elem.Append(dst, len(flat), func(k int) *E { return flat[k] })
		},
		decode: func(g *Group, rows []R) {
			counts := g.col(count, KindU32).U32
			total := 0
			for _, c := range counts {
				total += int(c)
			}
			slab := elem.read(g, total)
			if g.err != nil {
				return
			}
			off := 0
			for i, c := range counts {
				if c > 0 {
					*get(&rows[i]) = slab[off : off+int(c) : off+int(c)]
				}
				off += int(c)
			}
		},
	}
}

// U32List is a list of integers under the "<name>.n" + "<name>"
// convention.
func U32List[R any, T integer](name string, get func(*R) *[]T) Field[R] {
	return List(name+".n", get, Table[T]{U32(name, Self[T])})
}

// AddrList is a list of addresses under the "<name>.n" + "<name>"
// convention.
func AddrList[R any](name string, get func(*R) *[]netip.Addr) Field[R] {
	return List(name+".n", get, Table[netip.Addr]{Addr(name, Self[netip.Addr])})
}

// PackedAddr is an address field packed into a u8 column as
// u8-length-prefixed raw bytes, where length 0 is the zero Addr (which
// KindAddr cannot carry: silent traceroute hops, VPs without a source
// address). The column is not parallel; it must unpack to exactly one
// address per row.
func PackedAddr[R any](name string, get func(*R) *netip.Addr) Field[R] {
	return Field[R]{
		cols: []ColumnInfo{{Name: name, Kind: KindU8}},
		encode: func(dst []Column, n int, row func(int) *R) []Column {
			b := make([]uint8, 0, n*5)
			for i := 0; i < n; i++ {
				b = appendAddr(b, *get(row(i)))
			}
			return append(dst, Column{Name: name, Kind: KindU8, U8: b})
		},
		decode: func(g *Group, rows []R) {
			c := g.col(name, KindU8)
			if c == nil {
				return
			}
			rd := NewReader(c.U8)
			for i := range rows {
				*get(&rows[i]) = rd.addr(true)
			}
			if rd.err != nil {
				g.fail("packed address column %q: %v", name, rd.err)
			} else if rd.Len() != 0 {
				g.fail("packed address column %q has %d trailing bytes", name, rd.Len())
			}
		},
	}
}

// Len is a one-value u32 column holding the table's row count, for
// tables whose other columns cannot show it (packed ones).
func Len[R any](name string) Field[R] {
	return Field[R]{
		cols: []ColumnInfo{{Name: name, Kind: KindU32, Role: RoleCount}},
		encode: func(dst []Column, n int, _ func(int) *R) []Column {
			return append(dst, Column{Name: name, Kind: KindU32, U32: []uint32{uint32(n)}})
		},
		decode: func(g *Group, rows []R) {
			if c := g.col(name, KindU32); c != nil && (len(c.U32) != 1 || int(c.U32[0]) != len(rows)) {
				g.fail("column %q disagrees with the row count %d", name, len(rows))
			}
		},
	}
}

// Names builds a sorted name table from a set, with each name's index.
func Names(set map[string]struct{}) ([]string, map[string]uint32) {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	idx := make(map[string]uint32, len(names))
	for i, name := range names {
		idx[name] = uint32(i)
	}
	return names, idx
}
