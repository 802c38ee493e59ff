package alias

import (
	"math"
	"math/bits"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rpeer/internal/netsim"
	"rpeer/internal/rng"
)

var cw *netsim.World

func world(t testing.TB) *netsim.World {
	t.Helper()
	if cw == nil {
		w, err := netsim.Generate(netsim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cw = w
	}
	return cw
}

// multiIfaceRouter finds a router with >= n interfaces and a usable
// counter.
func multiIfaceRouter(t *testing.T, w *netsim.World, p *Prober, n int, skip int) *netsim.Router {
	t.Helper()
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) >= n && p.usableCounter(r) {
			if skip == 0 {
				return r
			}
			skip--
		}
	}
	t.Skip("no suitable router")
	return nil
}

func TestProbeSharedCounter(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r := multiIfaceRouter(t, w, p, 2, 0)
	id1, ok1 := p.Probe(r.Ifaces[0], 0)
	id2, ok2 := p.Probe(r.Ifaces[1], 1)
	if !ok1 || !ok2 {
		t.Skip("probe loss")
	}
	// One second apart on a shared counter: the delta must be near the
	// router's rate.
	diff := int(id2) - int(id1)
	if diff < 0 {
		diff += 65536
	}
	if float64(diff) > r.IPIDRate+20 {
		t.Errorf("counter delta %d for rate %.0f", diff, r.IPIDRate)
	}
}

func TestProbeUnknownInterface(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	if _, ok := p.Probe(netip.MustParseAddr("203.0.113.7"), 0); ok {
		t.Error("unknown interface produced usable reply")
	}
}

func TestResolveGroupsSameRouter(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r := multiIfaceRouter(t, w, p, 3, 0)
	res := NewResolver(p, ModePrecision)
	clusters := res.Resolve(r.Ifaces[:3])
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 (all interfaces share the router)", len(clusters))
	}
	if len(clusters[0]) != 3 {
		t.Fatalf("cluster size = %d, want 3", len(clusters[0]))
	}
}

func TestResolveSeparatesDifferentRouters(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	r1 := multiIfaceRouter(t, w, p, 2, 0)
	r2 := multiIfaceRouter(t, w, p, 2, 1)
	res := NewResolver(p, ModePrecision)
	in := []netip.Addr{r1.Ifaces[0], r1.Ifaces[1], r2.Ifaces[0], r2.Ifaces[1]}
	clusters := res.Resolve(in)

	// The two routers must never be merged in precision mode.
	idx := make(map[netip.Addr]int)
	for ci, c := range clusters {
		for _, ip := range c {
			idx[ip] = ci
		}
	}
	if idx[r1.Ifaces[0]] == idx[r2.Ifaces[0]] {
		t.Errorf("precision mode merged two distinct routers (rates %.1f vs %.1f)", r1.IPIDRate, r2.IPIDRate)
	}
}

func TestResolvePrecisionAccuracyAtScale(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	res := NewResolver(p, ModePrecision)

	// Take interfaces from many routers of one AS-like pool and check
	// pairwise precision: no cluster may span routers.
	var ifaces []netip.Addr
	truth := make(map[netip.Addr]netsim.RouterID)
	count := 0
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) < 2 {
			continue
		}
		for _, ip := range r.Ifaces[:2] {
			ifaces = append(ifaces, ip)
			truth[ip] = id
		}
		count++
		if count >= 40 {
			break
		}
	}
	clusters := res.Resolve(ifaces)
	falseMerges := 0
	resolvedPairs := 0
	for _, c := range clusters {
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				resolvedPairs++
				if truth[c[i]] != truth[c[j]] {
					falseMerges++
				}
			}
		}
	}
	if resolvedPairs == 0 {
		t.Fatal("nothing resolved")
	}
	if rate := float64(falseMerges) / float64(resolvedPairs); rate > 0.02 {
		t.Errorf("false-alias rate = %.3f over %d pairs, want <= 0.02", rate, resolvedPairs)
	}
}

func TestCoverageModeResolvesMore(t *testing.T) {
	w := world(t)
	p := NewProber(w, 9)
	var ifaces []netip.Addr
	count := 0
	for _, id := range w.RouterIDs {
		r := w.Router(id)
		if len(r.Ifaces) >= 2 {
			ifaces = append(ifaces, r.Ifaces[0], r.Ifaces[1])
			count++
		}
		if count >= 30 {
			break
		}
	}
	nonSingleton := func(cs [][]netip.Addr) int {
		n := 0
		for _, c := range cs {
			if len(c) > 1 {
				n += len(c)
			}
		}
		return n
	}
	prec := nonSingleton(NewResolver(p, ModePrecision).Resolve(ifaces))
	cov := nonSingleton(NewResolver(p, ModeCoverage).Resolve(ifaces))
	if cov < prec {
		t.Errorf("coverage mode resolved %d ifaces vs precision %d; want >=", cov, prec)
	}
}

func TestResolveDeterministic(t *testing.T) {
	w := world(t)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs[:20] {
		ifaces = append(ifaces, w.Router(id).Ifaces...)
	}
	a := NewResolver(NewProber(w, 9), ModePrecision).Resolve(ifaces)
	b := NewResolver(NewProber(w, 9), ModePrecision).Resolve(ifaces)
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

func TestTransitivityProperty(t *testing.T) {
	// Union-find output must be a partition: every input interface in
	// exactly one cluster.
	w := world(t)
	var ifaces []netip.Addr
	for _, id := range w.RouterIDs[:30] {
		ifaces = append(ifaces, w.Router(id).Ifaces...)
	}
	clusters := NewResolver(NewProber(w, 9), ModeCoverage).Resolve(ifaces)
	seen := make(map[netip.Addr]int)
	for _, c := range clusters {
		for _, ip := range c {
			seen[ip]++
		}
	}
	if len(seen) != len(uniqueAddrs(ifaces)) {
		t.Fatalf("partition covers %d ifaces, want %d", len(seen), len(uniqueAddrs(ifaces)))
	}
	for ip, n := range seen {
		if n != 1 {
			t.Fatalf("interface %v appears in %d clusters", ip, n)
		}
	}
}

func uniqueAddrs(in []netip.Addr) map[netip.Addr]bool {
	m := make(map[netip.Addr]bool, len(in))
	for _, ip := range in {
		m[ip] = true
	}
	return m
}

// refSeries is the pre-column per-interface probe memo record.
type refSeries struct {
	samples []sample
	vel     float64
	velOK   bool
}

// reference is the address-keyed resolver the Column replaced, kept
// as an oracle: series probed round by round through Probe and
// memoized in a map across calls, the MBT over materialized sample
// slices, and clusters grouped through a map and sorted by root.
type reference struct {
	p    *Prober
	mode Mode
	memo map[netip.Addr]*refSeries
}

func newReference(p *Prober, mode Mode) *reference {
	return &reference{p: p, mode: mode, memo: make(map[netip.Addr]*refSeries)}
}

func (r *reference) series(iface netip.Addr) *refSeries {
	if s, ok := r.memo[iface]; ok {
		return s
	}
	lo, hi := addrWords(iface)
	offset := float64(rng.Key3(r.p.seed, lo, hi, 0x0f)%7) * (Spacing / 7)
	s := &refSeries{}
	for i := 0; i < Rounds; i++ {
		t := float64(i)*Spacing + offset
		if id, ok := r.p.Probe(iface, t); ok {
			s.samples = append(s.samples, sample{t, id})
		}
	}
	s.vel, s.velOK = velocity(s.samples)
	r.memo[iface] = s
	return s
}

func refMBT(sa, sb *refSeries) bool {
	a, b := sa.samples, sb.samples
	if len(a) < 5 || len(b) < 5 || !sa.velOK || !sb.velOK {
		return false
	}
	va, vb := sa.vel, sb.vel
	if math.Abs(va-vb) > 0.05*math.Max(va, vb)+2 {
		return false
	}
	rate := (va + vb) / 2
	i, j := 0, 0
	var prev sample
	for i < len(a) || j < len(b) {
		var cur sample
		if j >= len(b) || (i < len(a) && a[i].t <= b[j].t) {
			cur = a[i]
			i++
		} else {
			cur = b[j]
			j++
		}
		if i+j > 1 {
			dt := cur.t - prev.t
			expect := rate * dt
			diff := float64(cur.id) - float64(prev.id)
			if diff < 0 {
				diff += 65536
			}
			if math.Abs(diff-expect) > 0.35*expect+25 {
				return false
			}
		}
		prev = cur
	}
	return true
}

// referenceResolve is the pre-column Resolve.
func referenceResolve(r *reference, ifaces []netip.Addr) [][]netip.Addr {
	sorted := append([]netip.Addr(nil), ifaces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	dedup := sorted[:0]
	for i, ip := range sorted {
		if i == 0 || ip != sorted[i-1] {
			dedup = append(dedup, ip)
		}
	}
	sorted = dedup
	series := make([]*refSeries, len(sorted))
	for i, ip := range sorted {
		series[i] = r.series(ip)
	}
	parent := make([]int32, len(sorted))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
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
	for i := 0; i < len(sorted); i++ {
		si := series[i]
		if !si.velOK {
			continue
		}
		for j := i + 1; j < len(sorted); j++ {
			sj := series[j]
			if !sj.velOK || find(int32(i)) == find(int32(j)) {
				continue
			}
			va, vb := si.vel, sj.vel
			if math.Abs(va-vb) > 0.10*math.Max(va, vb)+5 {
				continue
			}
			switch r.mode {
			case ModePrecision:
				if refMBT(si, sj) {
					union(int32(i), int32(j))
				}
			case ModeCoverage:
				if refMBT(si, sj) || math.Abs(va-vb) < 0.02*math.Max(va, vb)+1 {
					union(int32(i), int32(j))
				}
			}
		}
	}
	groups := make(map[int32][]netip.Addr, len(sorted))
	var roots []int32
	for i, ip := range sorted {
		root := find(int32(i))
		if _, ok := groups[root]; !ok {
			roots = append(roots, root)
		}
		groups[root] = append(groups[root], ip)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	out := make([][]netip.Addr, 0, len(roots))
	for _, root := range roots {
		out = append(out, groups[root])
	}
	return out
}

// oracleFixture is a column over an address-sorted pool of interfaces
// (row order == address order): the interfaces of several hundred
// routers, usable counters or not, plus documentation-range addresses
// no router owns. The column is filled in two Extend calls so the
// tail-growth path is what the oracle checks.
type oracleFixture struct {
	p        *Prober
	pool     []netip.Addr
	col      Column
	byRouter [][]uint32 // pool rows per sampled router
	noRouter []uint32
	unusable map[uint32]bool
}

var oracle *oracleFixture

func oracleFor(t testing.TB) *oracleFixture {
	t.Helper()
	if oracle != nil {
		return oracle
	}
	w := world(t)
	o := &oracleFixture{p: NewProber(w, 9), unusable: make(map[uint32]bool)}
	ids := w.RouterIDs
	step := len(ids)/300 + 1
	for i := 0; i < len(ids); i += step {
		r := w.Router(ids[i])
		o.pool = append(o.pool, r.Ifaces[:min(len(r.Ifaces), 4)]...)
	}
	for i := 1; i <= 24; i++ {
		a := netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
		if _, ok := w.RouterOf(a); !ok {
			o.pool = append(o.pool, a)
		}
	}
	slices.SortFunc(o.pool, netip.Addr.Compare)
	o.pool = slices.Compact(o.pool)
	rowsOf := make(map[netsim.RouterID][]uint32)
	var order []netsim.RouterID
	for row, a := range o.pool {
		rid, ok := w.RouterOf(a)
		if !ok {
			o.noRouter = append(o.noRouter, uint32(row))
			continue
		}
		if _, seen := rowsOf[rid]; !seen {
			order = append(order, rid)
		}
		rowsOf[rid] = append(rowsOf[rid], uint32(row))
		if !o.p.usableCounter(w.Router(rid)) {
			o.unusable[uint32(row)] = true
		}
	}
	for _, rid := range order {
		o.byRouter = append(o.byRouter, rowsOf[rid])
	}
	o.col.Extend(o.p, o.pool[:len(o.pool)/2], 4)
	o.col.Extend(o.p, o.pool, 4)
	oracle = o
	return o
}

// subset draws one random row set, sorted (address order) with any
// duplicates adjacent: a few routers' interfaces, stray rows
// (no-router addresses among them) and occasional repeats.
func (o *oracleFixture) subset(rnd *rand.Rand) []uint32 {
	var rows []uint32
	for range 1 + rnd.Intn(6) {
		rs := o.byRouter[rnd.Intn(len(o.byRouter))]
		for _, row := range rs {
			if rnd.Intn(4) != 0 {
				rows = append(rows, row)
			}
		}
	}
	for range rnd.Intn(4) {
		rows = append(rows, uint32(rnd.Intn(len(o.pool))))
	}
	if rnd.Intn(3) == 0 {
		rows = append(rows, o.noRouter[rnd.Intn(len(o.noRouter))])
	}
	if len(rows) > 0 && rnd.Intn(3) == 0 {
		for range 1 + rnd.Intn(3) {
			rows = append(rows, rows[rnd.Intn(len(rows))])
		}
	}
	if len(rows) == 0 {
		rows = append(rows, uint32(rnd.Intn(len(o.pool))))
	}
	slices.Sort(rows)
	return rows
}

// check resolves rows through the column and the reference and
// reports whether the clusters are identical, plus how many
// multi-member clusters the column produced.
func (o *oracleFixture) check(t *testing.T, ref *reference, rows []uint32) int {
	t.Helper()
	addrs := make([]netip.Addr, len(rows))
	for i, row := range rows {
		addrs[i] = o.pool[row]
	}
	got := ResolveColumn(ref.mode, &o.col, rows)
	want := referenceResolve(ref, addrs)
	gotAddrs := make([][]netip.Addr, len(got))
	multi := 0
	for i, cl := range got {
		for _, row := range cl {
			gotAddrs[i] = append(gotAddrs[i], o.pool[row])
		}
		if len(cl) > 1 {
			multi++
		}
	}
	if !reflect.DeepEqual(gotAddrs, want) {
		t.Fatalf("%v: rows %v\ncolumn    %v\nreference %v", ref.mode, rows, gotAddrs, want)
	}
	return multi
}

// oracleSubsets is the deterministic case list shared by the oracle
// test and the fuzz seed corpus.
func oracleSubsets(o *oracleFixture, n int) [][]uint32 {
	rnd := rand.New(rand.NewSource(1))
	out := make([][]uint32, n)
	for i := range out {
		out[i] = o.subset(rnd)
	}
	return out
}

func TestColumnMatchesReference(t *testing.T) {
	o := oracleFor(t)
	if o.col.Len() != len(o.pool) || o.col.Probed() != len(o.pool) {
		t.Fatalf("column len %d probed %d, want %d", o.col.Len(), o.col.Probed(), len(o.pool))
	}
	// Row by row, the column holds exactly the reference series: the
	// same reply rounds, times, IP-IDs and velocity bits.
	ref := newReference(o.p, ModePrecision)
	for row, a := range o.pool {
		want := ref.series(a)
		var got []sample
		for m := o.col.mask[row]; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			got = append(got, sample{sampleTime(k, slotOffset(o.col.slot[row])), o.col.ids[row*Rounds+k]})
		}
		if !slices.Equal(got, want.samples) ||
			math.Float64bits(o.col.vel[row]) != math.Float64bits(want.vel) || o.col.velOK[row] != want.velOK {
			t.Fatalf("row %d (%v): column %v vel %v/%v, reference %v vel %v/%v",
				row, a, got, o.col.vel[row], o.col.velOK[row], want.samples, want.vel, want.velOK)
		}
	}
	subsets := oracleSubsets(o, 240)
	for _, mode := range []Mode{ModePrecision, ModeCoverage} {
		ref := newReference(o.p, mode)
		multi, dups, unusable, noRouter := 0, 0, 0, 0
		for _, rows := range subsets {
			multi += o.check(t, ref, rows)
			for i, row := range rows {
				if i > 0 && rows[i-1] == row {
					dups++
				}
				if o.unusable[row] {
					unusable++
				}
				if slices.Contains(o.noRouter, row) {
					noRouter++
				}
			}
		}
		// The cases must exercise what they claim to.
		if multi == 0 || dups == 0 || unusable == 0 || noRouter == 0 {
			t.Fatalf("%v: vacuous cases: %d multi-member clusters, %d duplicates, %d unusable-counter rows, %d no-router rows",
				mode, multi, dups, unusable, noRouter)
		}
	}
}

// FuzzResolveColumn checks ResolveColumn against the reference over
// arbitrary row multisets of the oracle pool: the first byte picks the
// mode, each following byte pair a row.
func FuzzResolveColumn(f *testing.F) {
	o := oracleFor(f)
	for i, rows := range oracleSubsets(o, 64) {
		b := []byte{byte(i % 2)}
		for _, row := range rows {
			b = append(b, byte(row>>8), byte(row))
		}
		f.Add(b)
	}
	refs := []*reference{newReference(o.p, ModePrecision), newReference(o.p, ModeCoverage)}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 || len(b) > 129 {
			return
		}
		rows := make([]uint32, 0, len(b)/2)
		for i := 1; i+1 < len(b); i += 2 {
			rows = append(rows, (uint32(b[i])<<8|uint32(b[i+1]))%uint32(len(o.pool)))
		}
		slices.Sort(rows)
		o.check(t, refs[b[0]%2], rows)
	})
}
