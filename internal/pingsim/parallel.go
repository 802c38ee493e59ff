package pingsim

import (
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"sync"

	"rpeer/internal/ip4"
	"rpeer/internal/netsim"
	"rpeer/internal/rng"
)

// Stream salts for the campaign's per-entity RNG streams.
const (
	streamRouteServer uint64 = iota + 0x50
	streamPair
)

// RunParallel executes the campaign across a worker pool, one VP per
// task. Every (VP, target) pair draws from its own stream keyed by
// (seed, VP id, interface), so scheduling order cannot leak into the
// measurements: results are bit-identical for every worker count,
// including the single-worker path Run delegates to. Workers keep one
// generator and re-key it between pairs, and each VP's measurements
// live in one slab, so the campaign allocates O(VPs), not O(pairs).
//
// Use workers > 1 (or 0 = GOMAXPROCS) for large worlds.
func RunParallel(w *netsim.World, vps []*VP, cfg CampaignConfig, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &Result{
		VPs:            vps,
		ByVP:           make(map[int][]*Measurement, len(vps)),
		RouteServerRTT: make(map[int]float64, len(vps)),
	}

	type vpOut struct {
		vp     *VP
		rsRTT  float64
		ms     []*Measurement
		usable bool
	}
	tasks := make(chan *VP)
	outs := make(chan vpOut, len(vps))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := &rng.Source{}
			r := rand.New(src)
			for vp := range tasks {
				src.SetKey(rng.Key3(cfg.Seed, streamRouteServer, uint64(vp.ID), 0))
				rsRTT := routeServerRTT(w, vp, r)
				usable := vp.passesRSFilter(rsRTT)

				members := w.MembersOf(vp.IXP)
				slab := make([]Measurement, len(members))
				ms := make([]*Measurement, len(members))
				for i, mem := range members {
					src.SetKey(pairKey(cfg.Seed, vp.ID, mem.Iface))
					pingTarget(&slab[i], w, vp, mem, cfg, r)
					ms[i] = &slab[i]
				}
				slices.SortFunc(ms, func(a, b *Measurement) int { return a.Iface.Compare(b.Iface) })
				outs <- vpOut{vp: vp, rsRTT: rsRTT, ms: ms, usable: usable}
			}
		}()
	}
	go func() {
		for _, vp := range vps {
			tasks <- vp
		}
		close(tasks)
		wg.Wait()
		close(outs)
	}()

	for o := range outs {
		res.ByVP[o.vp.ID] = o.ms
		res.RouteServerRTT[o.vp.ID] = o.rsRTT
		if o.usable {
			res.UsableVPs = append(res.UsableVPs, o.vp)
		}
	}
	// Deterministic order regardless of completion order.
	slices.SortFunc(res.UsableVPs, func(a, b *VP) int { return a.ID - b.ID })
	// Fold the per-interface aggregates eagerly: the campaign is the
	// stage that runs on the worker pool, so downstream consumers
	// (core's context build) read finished columns instead of paying
	// the fold serially.
	res.IfaceIndex()
	res.AggRows()
	return res
}

// pairKey derives the stream key for one (seed, vp, target) pair.
func pairKey(seed int64, vpID int, ip netip.Addr) uint64 {
	return rng.Key3(seed, streamPair, uint64(vpID), uint64(ip4.U32(ip)))
}
