// Package alias implements MIDAR-style IPv4 alias resolution
// (Keys et al., ToN 2013; paper Section 5.2, Step 4) over the
// simulated Internet: routers expose a shared, monotonically
// increasing IP-ID counter across all their interfaces, and the
// resolver probes candidate interfaces in interleaved rounds, applying
// a Monotonic Bounds Test (MBT) to decide whether two interfaces share
// one counter — i.e. belong to one physical router.
//
// Probe outcomes live in a Column: one row per interface index holding
// a reply bitmask over the Rounds probe rounds, a fixed stride of
// 16-bit IP-IDs, the hashed probe offset and the fitted counter
// velocity. The column is flat slices with no per-interface heap
// object, filled in parallel, and grown only at its tail. Callers that
// intern interfaces into dense IDs (core.Context) keep one column over
// their whole ID space and resolve ID sets against it with
// ResolveColumn; Resolve wraps a throwaway column for address sets.
//
// Two confidence modes mirror the two CAIDA datasets the paper chooses
// between: ModePrecision (MIDAR + iffinder: strict, very low false
// positives) and ModeCoverage (adding kapar-style looser matching:
// higher coverage, more errors).
package alias

import (
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"sync"

	"rpeer/internal/netsim"
	"rpeer/internal/par"
	"rpeer/internal/rng"
)

// Mode selects the precision/coverage trade-off.
type Mode int

const (
	// ModePrecision accepts only pairs passing the strict MBT
	// (highest-confidence aliases, very low false positives).
	ModePrecision Mode = iota
	// ModeCoverage additionally accepts pairs with merely similar
	// counter velocities, boosting coverage at the cost of accuracy.
	ModeCoverage
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModePrecision {
		return "midar+iffinder"
	}
	return "midar+kapar"
}

const (
	// Rounds is the number of interleaved probe rounds per interface
	// (MIDAR-like; at most 32, the width of a column's reply mask).
	Rounds = 30
	// Spacing is the inter-round spacing in seconds.
	Spacing = 10.0
)

// Prober simulates probing an interface for its IP-ID value. A
// fraction of routers use randomized or zero IP-IDs and are therefore
// unresolvable — the real-world phenomenon that caps Step 4 coverage.
//
// Probing is a pure function of (seed, interface, probe time): per-probe
// randomness (loss, counter jitter) is derived from a stable hash rather
// than a shared RNG stream. An interface's probe series therefore does
// not depend on which other interfaces share a resolution, so one
// Column row serves every resolution that touches the interface.
type Prober struct {
	w *netsim.World
	// RandomIPIDFrac is the fraction of routers with unusable IP-ID
	// behaviour.
	RandomIPIDFrac float64
	// NoReplyProb is the per-probe loss probability.
	NoReplyProb float64
	seed        int64

	// usable caches the per-router counter-usability verdict (pure in
	// (seed, router), recomputed tens of times per router by the
	// resolver's probe rounds before the cache). Built on first probe so
	// post-construction tuning of RandomIPIDFrac still takes effect.
	usableOnce sync.Once
	usable     []bool
}

// NewProber builds a prober over the world.
func NewProber(w *netsim.World, seed int64) *Prober {
	return &Prober{
		w:              w,
		RandomIPIDFrac: 0.15,
		NoReplyProb:    0.05,
		seed:           seed,
	}
}

// addrWords folds an address into two 64-bit identity words.
func addrWords(a netip.Addr) (lo, hi uint64) {
	if a.Is4() {
		b := a.As4()
		return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]), 4
	}
	b := a.As16()
	for i := 0; i < 8; i++ {
		lo |= uint64(b[i]) << (8 * i)
		hi |= uint64(b[8+i]) << (8 * i)
	}
	return lo, hi
}

// noise derives a deterministic uniform [0,1) value for one probe event
// from (seed, interface, time, salt).
func (p *Prober) noise(iface netip.Addr, t float64, salt uint64) float64 {
	lo, hi := addrWords(iface)
	h := rng.Mix(rng.Key3(p.seed, lo, hi, math.Float64bits(t)), salt)
	return float64(h>>11) / (1 << 53)
}

// usableCounter reports whether the router exposes a shared monotonic
// IP-ID counter (deterministic per router and seed).
func (p *Prober) usableCounter(r *netsim.Router) bool {
	p.usableOnce.Do(p.buildUsable)
	if int(r.ID) < len(p.usable) {
		return p.usable[r.ID]
	}
	return p.usableVerdict(r.ID)
}

// buildUsable precomputes the usability column for the world's dense
// router ID space.
func (p *Prober) buildUsable() {
	maxID := netsim.RouterID(-1)
	for _, id := range p.w.RouterIDs {
		if id > maxID {
			maxID = id
		}
	}
	col := make([]bool, maxID+1)
	for _, id := range p.w.RouterIDs {
		col[id] = p.usableVerdict(id)
	}
	p.usable = col
}

// usableVerdict is the pure per-router verdict backing the cache.
func (p *Prober) usableVerdict(id netsim.RouterID) bool {
	h := rng.Key2(p.seed, uint64(id), 0x1d)
	return float64(h%10000)/10000 >= p.RandomIPIDFrac
}

// Probe returns the IP-ID value of the interface at (virtual) time t
// seconds, and whether a usable reply arrived.
func (p *Prober) Probe(iface netip.Addr, t float64) (uint16, bool) {
	rid, ok := p.w.RouterOf(iface)
	if !ok {
		return 0, false
	}
	r := p.w.Router(rid)
	if !p.usableCounter(r) {
		// Randomized IP-ID: reply arrives but carries no signal.
		return uint16(p.noise(iface, t, 0xA5) * 65536), false
	}
	if p.noise(iface, t, 0x5A) < p.NoReplyProb {
		return 0, false
	}
	// Shared counter: base progression plus cross-traffic increments.
	v := float64(r.IPIDInit) + r.IPIDRate*t + p.noise(iface, t, 0x33)*3
	return uint16(uint64(v) % 65536), true
}

// sample is one (time, unwrapped-id) observation.
type sample struct {
	t  float64
	id uint16
}

// sampleTime is the probe time of round k for an interface whose
// rounds are shifted by off seconds. Every reader of a column
// recomputes times through here, so the fill, the velocity fit and the
// MBT see bit-identical floats.
func sampleTime(k int, off float64) float64 { return float64(k)*Spacing + off }

// slotOffset converts a hashed offset slot (0..6) into seconds: the
// round schedule interleaves interfaces MIDAR-style in steps of
// Spacing/7.
func slotOffset(slot uint8) float64 { return float64(slot) * (Spacing / 7) }

// Column is the probe-series substrate: row i holds the outcome of
// probing interface i across all Rounds rounds. Rows are written only
// by their own index, so a parallel fill is schedule-independent, and
// a filled row is never rewritten — Extend probes only the new tail.
type Column struct {
	mask   []uint32  // bit k set: round k returned a usable reply
	ids    []uint16  // Rounds IP-IDs per row, by round (valid where mask is set)
	slot   []uint8   // hashed probe offset, in units of Spacing/7
	vel    []float64 // fitted counter velocity (IDs per second)
	velOK  []bool    // the fit had enough samples
	probed int       // rows ever probed (== Len: no row is probed twice)
}

// Len returns the number of rows (interfaces) the column covers.
func (c *Column) Len() int { return len(c.mask) }

// Probed returns how many row probes the column has run over its
// lifetime. It equals Len: growth probes only new rows.
func (c *Column) Probed() int { return c.probed }

// Extend probes the interfaces addrs[c.Len():] into new rows, fanning
// the rows over workers goroutines (workers <= 1 runs inline). addrs
// is the whole index-to-address list; rows already present are neither
// re-probed nor moved in value, so growth costs O(new rows).
func (c *Column) Extend(p *Prober, addrs []netip.Addr, workers int) {
	old, n := c.Len(), len(addrs)
	if n <= old {
		return
	}
	c.mask = grow(c.mask, n)
	c.ids = grow(c.ids, n*Rounds)
	c.slot = grow(c.slot, n)
	c.vel = grow(c.vel, n)
	c.velOK = grow(c.velOK, n)
	par.Do(workers, n-old, func(k int) { p.probeRow(c, old+k, addrs[old+k]) })
	c.probed += n - old
}

// grow extends s to length n, reallocating with headroom so repeated
// small tail growth stays amortized O(new elements).
func grow[E any](s []E, n int) []E {
	if cap(s) >= n {
		return s[:n]
	}
	next := make([]E, n, n+n/8)
	copy(next, s)
	return next
}

// probeRow probes one interface across all rounds into row i (new,
// hence zeroed), hoisting the router resolution, usability verdict and
// address words out of the per-round loop (Probe re-derives all three
// per call). The outcome equals calling Probe round by round.
func (p *Prober) probeRow(c *Column, i int, iface netip.Addr) {
	lo, hi := addrWords(iface)
	c.slot[i] = uint8(rng.Key3(p.seed, lo, hi, 0x0f) % 7)
	rid, ok := p.w.RouterOf(iface)
	if !ok {
		return
	}
	r := p.w.Router(rid)
	if !p.usableCounter(r) {
		return // every probe replies without signal
	}
	off := slotOffset(c.slot[i])
	base := rng.Key2(p.seed, lo, hi)
	row := c.ids[i*Rounds : (i+1)*Rounds]
	var series [Rounds]sample
	n := 0
	var mask uint32
	for k := range Rounds {
		t := sampleTime(k, off)
		ht := rng.Mix(base, math.Float64bits(t))
		if float64(rng.Mix(ht, 0x5A)>>11)/(1<<53) < p.NoReplyProb {
			continue
		}
		jitter := float64(rng.Mix(ht, 0x33)>>11) / (1 << 53)
		v := float64(r.IPIDInit) + r.IPIDRate*t + jitter*3
		row[k] = uint16(uint64(v) % 65536)
		mask |= 1 << k
		series[n] = sample{t, row[k]}
		n++
	}
	c.mask[i] = mask
	c.vel[i], c.velOK[i] = velocity(series[:n])
}

// velocity estimates the counter rate (IDs per second) of a series by
// unwrapping 16-bit wraparounds, returning ok=false for short series.
func velocity(s []sample) (rate float64, ok bool) {
	if len(s) < 5 {
		return 0, false
	}
	// Unwrap: assume the counter advances less than 2^16 between
	// consecutive samples (true for MIDAR-scale spacing and rates),
	// accumulating the least-squares terms in one pass.
	var sx, sy, sxx, sxy float64
	offset := 0.0
	prev := float64(s[0].id)
	for i, smp := range s {
		cur := float64(smp.id)
		if i > 0 && cur < prev {
			offset += 65536
		}
		prev = cur
		v := cur + offset
		sx += smp.t
		sy += v
		sxx += smp.t * smp.t
		sxy += smp.t * v
	}
	n := float64(len(s))
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	return (n*sxy - sx*sy) / den, true
}

// mbt runs the Monotonic Bounds Test on rows a and b: merged by time,
// the unwrapped sequence must be strictly non-decreasing and
// consistent with a single linear counter. Each row's replies are
// time-ordered by round, so the merge walks the two reply masks
// lowest bit first with no allocation.
func (c *Column) mbt(a, b int) bool {
	// A velocity fit needs at least 5 replies.
	if !c.velOK[a] || !c.velOK[b] {
		return false
	}
	va, vb := c.vel[a], c.vel[b]
	// Velocities of a shared counter agree closely.
	if math.Abs(va-vb) > 0.05*math.Max(va, vb)+2 {
		return false
	}
	// Monotonicity of the merged sequence with the common velocity:
	// successive samples must advance by roughly rate*dt.
	rate := (va + vb) / 2
	ma, mb := c.mask[a], c.mask[b]
	offA, offB := slotOffset(c.slot[a]), slotOffset(c.slot[b])
	rowA, rowB := c.ids[a*Rounds:(a+1)*Rounds], c.ids[b*Rounds:(b+1)*Rounds]
	var prev sample
	first := true
	for ma != 0 || mb != 0 {
		var cur sample
		ka, kb := bits.TrailingZeros32(ma), bits.TrailingZeros32(mb)
		ta, tb := sampleTime(ka, offA), sampleTime(kb, offB)
		if mb == 0 || (ma != 0 && ta <= tb) {
			cur = sample{ta, rowA[ka]}
			ma &= ma - 1
		} else {
			cur = sample{tb, rowB[kb]}
			mb &= mb - 1
		}
		if !first {
			dt := cur.t - prev.t
			expect := rate * dt
			diff := float64(cur.id) - float64(prev.id)
			if diff < 0 {
				diff += 65536 // wraparound
			}
			// Allow generous jitter around the expected advance.
			if math.Abs(diff-expect) > 0.35*expect+25 {
				return false
			}
		}
		first = false
		prev = cur
	}
	return true
}

// ResolveColumn clusters the column rows named by ids into alias sets
// (routers). ids must be sorted by interface address with duplicates
// adjacent; duplicates collapse to one member. Rows that resolve with
// nothing form singleton clusters. Clusters are emitted in ascending
// order of their first member and keep input order within, so the
// result is a pure function of the row set. ids is not retained; the
// clusters share one backing array.
func ResolveColumn[T ~uint32](mode Mode, col *Column, ids []T) [][]T {
	set := make([]T, 0, len(ids))
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			set = append(set, id)
		}
	}

	// Union-find over alias-positive pairs, by position in set.
	parent := make([]int32, len(set))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	for i := range set {
		a := int(set[i])
		if !col.velOK[a] {
			continue
		}
		for j := i + 1; j < len(set); j++ {
			b := int(set[j])
			if !col.velOK[b] || find(int32(i)) == find(int32(j)) {
				continue
			}
			va, vb := col.vel[a], col.vel[b]
			// Cheap velocity pre-filter before the expensive MBT.
			if math.Abs(va-vb) > 0.10*math.Max(va, vb)+5 {
				continue
			}
			switch mode {
			case ModePrecision:
				if col.mbt(a, b) {
					union(int32(i), int32(j))
				}
			case ModeCoverage:
				if col.mbt(a, b) || math.Abs(va-vb) < 0.02*math.Max(va, vb)+1 {
					union(int32(i), int32(j))
				}
			}
		}
	}

	// Union keeps the lower position as root, so every root is its
	// cluster's first member: numbering roots as they are met emits
	// clusters in root order. cluster[i] is i's cluster number.
	cluster := make([]int32, len(set))
	var sizes []int
	for i := range set {
		root := find(int32(i))
		if root == int32(i) {
			cluster[i] = int32(len(sizes))
			sizes = append(sizes, 0)
		} else {
			cluster[i] = cluster[root]
		}
		sizes[cluster[i]]++
	}
	slab := make([]T, len(set))
	out := make([][]T, len(sizes))
	start := 0
	for k, n := range sizes {
		out[k] = slab[start : start : start+n]
		start += n
	}
	for i, id := range set {
		out[cluster[i]] = append(out[cluster[i]], id)
	}
	return out
}

// Resolver clusters address sets into routers over a throwaway column.
// Callers with a dense interface ID space should keep one Column and
// call ResolveColumn instead.
type Resolver struct {
	Prober *Prober
	Mode   Mode
}

// NewResolver returns a resolver probing Rounds rounds Spacing seconds
// apart.
func NewResolver(p *Prober, mode Mode) *Resolver {
	return &Resolver{Prober: p, Mode: mode}
}

// Resolve clusters the given interfaces into alias sets (routers).
// Interfaces that resolve with nothing form singleton clusters. The
// result is deterministic for a given prober seed and input order is
// normalised internally.
func (r *Resolver) Resolve(ifaces []netip.Addr) [][]netip.Addr {
	sorted := slices.Clone(ifaces)
	slices.SortFunc(sorted, netip.Addr.Compare)
	sorted = slices.Compact(sorted)
	var col Column
	col.Extend(r.Prober, sorted, 1)
	rows := make([]uint32, len(sorted))
	for i := range rows {
		rows[i] = uint32(i)
	}
	clusters := ResolveColumn(r.Mode, &col, rows)
	out := make([][]netip.Addr, len(clusters))
	for i, cl := range clusters {
		out[i] = make([]netip.Addr, len(cl))
		for j, row := range cl {
			out[i][j] = sorted[row]
		}
	}
	return out
}
