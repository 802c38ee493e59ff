// Command rpi-serve runs the remote peering inference service: a host
// of long-lived rpi.Engines, one per tenant, exposed over HTTP/JSON
// (the /v1 wire schema of pkg/rpi). Out of the box it serves one world,
// the -default-tenant built from -seed/-scale (or loaded from -world),
// on the single-world routes:
//
//	GET  /healthz          liveness
//	GET  /readyz           readiness of the default tenant (503 until it is open)
//	GET  /v1/infer         full inference report
//	GET  /v1/report/{ixp}  one IXP's report
//	POST /v1/apply         membership joins/leaves + RTT refreshes
//	GET  /v1/stream        server-sent events: verdict changes as they land
//
// Usage:
//
//	rpi-serve [-seed N] [-scale N] [-world FILE] [-addr :8090] [-workers N]
//	          [-data-dir DIR] [-fsync every|interval|off] [-snapshot-every N]
//	          [-request-timeout 0] [-admit-read N] [-admit-cheap N]
//	          [-admit-write N] [-admit-stream N]
//	          [-default-tenant default] [-max-tenants 64] [-idle-evict 0]
//	          [-debug-addr :8091] [-shutdown-timeout 10s]
//
// Every engine journals each applied delta to a checksummed
// write-ahead log before it is acknowledged, and columnar snapshots
// bound replay. With -data-dir the log lives on disk under
// DIR/tenants/<name> and a restart recovers the exact pre-crash state
// (see pkg/rpi.Open); without it the log lives in memory, which still
// lets a quarantined engine heal but starts empty on restart. The
// listener binds before the default tenant opens: /healthz answers
// while it builds or replays, and /readyz goes green when it is up.
//
// The serving plane is overload-safe and self-healing. Every /v1
// endpoint passes through per-class admission control: cheap per-IXP
// reads, full-report reads, mutating applies and SSE streams are each
// independently bounded (machine-scaled defaults; override slots with
// the -admit-* flags), one tenant may hold at most half of a class's
// slots, and saturation answers 503 + Retry-After instead of queueing
// without bound. -request-timeout caps the end-to-end time of
// non-streaming requests, and the deadline propagates into the engine
// — an abandoned request stops costing anything. A panic escaping an
// engine's Apply (or a broken WAL) quarantines that engine instead of
// killing the process: reads keep serving the last good snapshot,
// writes answer 503, and a background re-Open heals the engine from
// its journal.
//
// More tenants are created and deleted over HTTP and served under
// /v1/t/{tenant}/...; each has its own engine, data directory and
// supervisor. Engines open lazily on first request and, with
// -idle-evict, close (final snapshot) after sitting idle:
//
//	POST   /v1/tenants            {"name":"acme","seed":7,"profile":"tiny"}
//	GET    /v1/tenants            every tenant's live state
//	DELETE /v1/tenants/{tenant}   drop a tenant (?purge=1 removes its data)
//	GET    /v1/t/{tenant}/infer   that tenant's full report
//
// Tenant profiles: "paper" (default, the paper-sized world; "paper-N"
// scales it Nx), "tiny" (a millisecond-scale world for tests and
// demos) and "world" (the -world bundle, which carries its own seed;
// an error without -world or with a nonzero seed). A
// tenant's world derives deterministically from its (seed, profile),
// so a restart rebuilds or recovers every tenant exactly. The manifest
// under -data-dir remembers the default tenant's spec: restarting with
// a different -seed, -scale or -world is refused.
//
// SIGINT/SIGTERM shut the service down gracefully: in-flight requests
// drain (bounded by -shutdown-timeout), then every open engine closes,
// publishing a final snapshot so the next start replays nothing.
//
// With -debug-addr set, a second listener exposes the Go runtime
// diagnostics — /debug/pprof/ (heap, CPU, goroutine profiles) and
// /debug/vars (expvar: rpi.host with each tenant's state, seq,
// fault/recovery counts and dropped subscriber updates; rpi.admission
// with per-class and per-tenant counters; rpi.handler_panics) — kept
// off the service address so the profiling surface is never reachable
// from the API network.
//
// Example session:
//
//	curl localhost:8090/v1/report/Frankfurt-IX
//	curl -X POST localhost:8090/v1/apply -d '{"leaves":[{"ixp":"Frankfurt-IX","iface":"185.0.0.9"}]}'
//	curl -N localhost:8090/v1/stream
//	go tool pprof localhost:8091/debug/pprof/heap
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rpeer/internal/admission"
	"rpeer/internal/host"
	"rpeer/internal/netsim"
	"rpeer/internal/wal"
	"rpeer/internal/worldfile"
	"rpeer/pkg/rpi"
	"rpeer/pkg/rpi/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rpi-serve: ")
	seed := flag.Int64("seed", 1, "world generation seed of the default tenant")
	scale := flag.Int("scale", 1, "world scale factor of the default tenant (1 = paper-sized)")
	worldPath := flag.String("world", "", "serve this .rpw world file (written by rpi-gen -o) as the default tenant, and as the \"world\" tenant profile (overrides -seed/-scale)")
	addr := flag.String("addr", ":8090", "listen address")
	workers := flag.Int("workers", 0, "inference shard workers (0 = one per CPU)")
	dataDir := flag.String("data-dir", "", "durable state directory: tenant manifest, per-tenant delta WAL + snapshots (empty = in-memory)")
	fsync := flag.String("fsync", "every", "WAL fsync policy: every (per record), interval, off")
	fsyncInterval := flag.Duration("fsync-interval", time.Second, "flush period for -fsync interval")
	snapEvery := flag.Int("snapshot-every", rpi.DefaultSnapshotEvery, "deltas between automatic snapshots (0 = only on shutdown)")
	reqTimeout := flag.Duration("request-timeout", 0, "end-to-end deadline for non-streaming requests (0 = none)")
	admitCheap := flag.Int("admit-cheap", 0, "concurrent per-IXP report reads (0 = scale to CPUs)")
	admitRead := flag.Int("admit-read", 0, "concurrent full-report reads (0 = scale to CPUs)")
	admitWrite := flag.Int("admit-write", 0, "concurrent applies (0 = default 1; applies serialize anyway)")
	admitStream := flag.Int("admit-stream", 0, "concurrent SSE streams (0 = scale to CPUs)")
	debugAddr := flag.String("debug-addr", "", "listen address for /debug/pprof and expvar (empty = disabled)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "graceful-drain deadline on SIGINT/SIGTERM")
	defaultTenant := flag.String("default-tenant", "default", "tenant built from -seed/-scale/-world and served on the /v1 routes (empty = tenant routes only)")
	maxTenants := flag.Int("max-tenants", 64, "tenant registry bound")
	idleEvict := flag.Duration("idle-evict", 0, "evict a tenant's engine after this long without traffic (0 = never)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := persistOpts(*fsync, *fsyncInterval, *snapEvery)
	if err != nil {
		log.Fatal(err)
	}
	opts = append(opts, rpi.WithWorkers(*workers))
	if *dataDir == "" {
		// No durable root: engine WALs live in memory for the process's
		// lifetime (engines still journal + snapshot, so quarantine
		// recovery works; a restart starts empty).
		opts = append(opts, rpi.WithWALFS(wal.NewMemFS()))
		log.Print("no -data-dir: engine state is in-memory (lost on restart)")
	}
	h, err := host.Open(host.Config{
		Dir:         *dataDir,
		Inputs:      tenantInputs(*worldPath),
		Options:     opts,
		MaxTenants:  *maxTenants,
		IdleTimeout: *idleEvict,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *defaultTenant != "" {
		if err := ensureTenant(h, defaultSpec(*defaultTenant, *seed, *scale, *worldPath)); err != nil {
			log.Fatal(err)
		}
	}

	front := serve.NewHost(h, *defaultTenant, serve.Config{
		Admission:      admissionConfig(*admitCheap, *admitRead, *admitWrite, *admitStream),
		RequestTimeout: *reqTimeout,
	})
	publishVars(front)
	// Bind the service port before the (possibly long) default-tenant
	// open: orchestrators see liveness immediately, readiness when
	// recovery completes.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           front,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.ListenAndServe() }()
	log.Printf("serving /v1 on %s (%d tenants registered)", *addr, h.Len())

	var dbg *http.Server
	dbgErr := make(chan error, 1)
	if *debugAddr != "" {
		dbg = debugServer(*debugAddr)
		go func() { dbgErr <- dbg.ListenAndServe() }()
		log.Printf("serving /debug/pprof and /debug/vars on %s", *debugAddr)
	}

	if *defaultTenant != "" {
		if err := warm(ctx, h, *defaultTenant); err != nil {
			log.Print(err)
			srv.Close()
			_ = h.Close()
			os.Exit(1)
		}
	}

	// Wait for a shutdown signal or a listener failure.
	select {
	case <-ctx.Done():
		log.Printf("signal received, draining connections (up to %s)...", *shutdownTimeout)
	case err := <-srvErr:
		log.Printf("service listener stopped: %v", err)
	case err := <-dbgErr:
		// Diagnostics are auxiliary: a busy port must not take the
		// healthy /v1 API down with it.
		log.Printf("debug listener stopped: %v", err)
		dbg = nil
		waitShutdown(ctx, srvErr)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if dbg != nil {
		_ = dbg.Shutdown(drainCtx)
	}
	// Close after the listeners stop: no request can race the final
	// snapshots, and the last acknowledged delta is on disk. The host
	// closes every open engine (a quarantined one was already
	// abandoned; its durable state is the acknowledged prefix).
	if err := h.Close(); err != nil {
		log.Printf("host close: %v", err)
		os.Exit(1)
	}
	log.Print("shut down cleanly")
}

// tenantInputs returns the host's world factory. A tenant's base world
// derives from its spec, and only its spec — a restarted host rebuilds
// every tenant identically. Profiles: "" / "paper" (paper-sized world),
// "paper-N" (scaled Nx), "tiny" (millisecond-scale world for tests and
// demos), "world" (the operator's worldPath bundle, whose seed is its
// own, so a spec with a nonzero seed is refused). A spec selects the
// "world" profile but can never name a file.
func tenantInputs(worldPath string) func(host.TenantSpec) (rpi.Inputs, error) {
	return func(sp host.TenantSpec) (rpi.Inputs, error) {
		switch {
		case sp.Profile == "" || sp.Profile == "paper":
			return rpi.SyntheticInputs(sp.Seed, 1)
		case sp.Profile == "tiny":
			cfg := netsim.TinyConfig()
			if sp.Seed != 0 {
				cfg.Seed = sp.Seed
			}
			return rpi.InputsFromConfig(cfg, sp.Seed)
		case sp.Profile == "world":
			if worldPath == "" {
				return rpi.Inputs{}, errors.New(`profile "world" needs rpi-serve -world`)
			}
			if sp.Seed != 0 {
				return rpi.Inputs{}, fmt.Errorf(`profile "world" takes its seed from the -world file; got seed %d`, sp.Seed)
			}
			start := time.Now()
			in, err := worldfile.Load(worldPath)
			if err != nil {
				return rpi.Inputs{}, err
			}
			log.Printf("world bundle %s loaded in %s: %d memberships, seed %d",
				worldPath, time.Since(start).Round(time.Millisecond), len(in.World.Members), in.Seed)
			return in, nil
		case strings.HasPrefix(sp.Profile, "paper-"):
			scale, err := strconv.Atoi(strings.TrimPrefix(sp.Profile, "paper-"))
			if err != nil || scale < 1 {
				return rpi.Inputs{}, fmt.Errorf("bad profile %q: want paper-N with N >= 1", sp.Profile)
			}
			return rpi.SyntheticInputs(sp.Seed, scale)
		default:
			return rpi.Inputs{}, fmt.Errorf("unknown profile %q (want paper, paper-N, tiny or world)", sp.Profile)
		}
	}
}

// defaultSpec is the default tenant's spec from the -seed/-scale/-world
// flags. A world file carries its own seed, so the spec records none.
func defaultSpec(name string, seed int64, scale int, worldPath string) host.TenantSpec {
	switch {
	case worldPath != "":
		return host.TenantSpec{Name: name, Profile: "world"}
	case scale <= 1:
		return host.TenantSpec{Name: name, Seed: seed, Profile: "paper"}
	default:
		return host.TenantSpec{Name: name, Seed: seed, Profile: fmt.Sprintf("paper-%d", scale)}
	}
}

// ensureTenant registers sp, or checks that the manifest already holds
// it with the same base world: a tenant's log must never be replayed
// onto a different world.
func ensureTenant(h *host.Host, sp host.TenantSpec) error {
	err := h.Create(sp)
	if !errors.Is(err, host.ErrTenantExists) {
		return err
	}
	st, err := h.Status(sp.Name)
	if err != nil {
		return err
	}
	if st.Seed != sp.Seed || st.Profile != sp.Profile {
		return fmt.Errorf("tenant %q holds seed %d, profile %q; refusing to serve it as seed %d, profile %q",
			sp.Name, st.Seed, st.Profile, sp.Seed, sp.Profile)
	}
	return nil
}

// warm opens (builds or recovers) a tenant's engine and logs its
// verdict mix.
func warm(ctx context.Context, h *host.Host, name string) error {
	lease, err := h.Lease(ctx, name)
	if err != nil {
		return err
	}
	defer lease.Release()
	eng := lease.Guard().Engine()
	rep := eng.Snapshot()
	var local, remote int
	for _, inf := range rep.Inferences {
		switch inf.Class {
		case rpi.ClassLocal:
			local++
		case rpi.ClassRemote:
			remote++
		}
	}
	log.Printf("tenant %q ready: %d memberships (%d local, %d remote), %d multi-IXP routers, seq %d",
		name, len(rep.Inferences), local, remote, len(rep.MultiRouters), eng.Seq())
	return nil
}

// persistOpts translates the -fsync/-snapshot-every flags into engine
// options.
func persistOpts(fsync string, fsyncInterval time.Duration, snapEvery int) ([]rpi.Option, error) {
	var opts []rpi.Option
	switch fsync {
	case "every":
		opts = append(opts, rpi.WithSync(rpi.SyncEveryDelta))
	case "interval":
		opts = append(opts, rpi.WithSyncInterval(fsyncInterval))
	case "off":
		opts = append(opts, rpi.WithSync(rpi.SyncOff))
	default:
		return nil, errors.New("bad -fsync: want every, interval or off")
	}
	return append(opts, rpi.WithSnapshotEvery(snapEvery)), nil
}

// admissionConfig translates the -admit-* slot flags into per-class
// limits: a set flag gets a queue twice its depth and the class's
// default patience; an unset flag keeps the machine-scaled default.
func admissionConfig(cheap, read, write, stream int) admission.Config {
	var cfg admission.Config
	if cheap > 0 {
		cfg.Cheap = admission.Limits{Slots: cheap, Queue: 2 * cheap, MaxWait: 2 * time.Second}
	}
	if read > 0 {
		cfg.Read = admission.Limits{Slots: read, Queue: 2 * read, MaxWait: 2 * time.Second}
	}
	if write > 0 {
		cfg.Write = admission.Limits{Slots: write, Queue: 2 * write, MaxWait: 5 * time.Second}
	}
	if stream > 0 {
		cfg.Stream = admission.Limits{Slots: stream}
	}
	return cfg
}

// waitShutdown keeps serving after a debug-listener failure until a
// real stop condition arrives.
func waitShutdown(ctx context.Context, srvErr chan error) {
	select {
	case <-ctx.Done():
	case err := <-srvErr:
		log.Printf("service listener stopped: %v", err)
	}
}

// publishVars exposes the serving gauges through expvar (served on the
// debug listener): per-tenant state (rpi.host: seq, generation, faults,
// recoveries, continuity violations, dropped subscriber updates),
// per-class and per-tenant admission counters (rpi.admission), and the
// handler panic net.
func publishVars(front *serve.HostServer) {
	h := front.Host()
	expvar.Publish("rpi.host", expvar.Func(func() interface{} { return h.Tenants() }))
	expvar.Publish("rpi.admission", front.Admission().Expvar())
	expvar.Publish("rpi.handler_panics", expvar.Func(func() interface{} { return front.HandlerPanics() }))
}

// debugServer builds the diagnostics listener: pprof + expvar, with
// the same timeout hygiene as the service listener.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
