package serve

// HostServer: one listener, one admission controller, many engines —
// each tenant's world served under /v1/t/{tenant}/..., plus tenant
// lifecycle endpoints:
//
//	POST   /v1/tenants              create a tenant (JSON TenantSpec)
//	GET    /v1/tenants              list tenants + live state
//	GET    /v1/tenants/{tenant}     one tenant's state
//	DELETE /v1/tenants/{tenant}     delete (durable state kept; ?purge=1 removes it)
//	GET    /v1/t/{tenant}/infer     full wire report
//	GET    /v1/t/{tenant}/report/{ixp}
//	POST   /v1/t/{tenant}/apply
//	GET    /v1/t/{tenant}/stream    SSE verdict changes
//
// When built with a default tenant, the single-world routes
// (/v1/infer, /v1/report/{ixp}, /v1/apply, /v1/stream) alias it, so
// clients of a one-world deployment never name a tenant.
//
// Admission is shared across tenants (one machine's worth of limits)
// with per-tenant fairness on top: every request is attributed to its
// tenant and, while the host holds more than one tenant, one tenant may
// hold at most Admission.TenantShare of a class's slots, so a hot
// tenant sheds before it starves its siblings. A lone tenant (the
// one-world deployment) is bounded by the class gates alone.
// Requests hold a host lease for their lifetime — a stream pins its
// tenant's engine against idle eviction for exactly as long as the
// subscriber is attached.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"rpeer/internal/admission"
	"rpeer/internal/host"
)

// HostServer is the HTTP facade over a multi-tenant engine host.
type HostServer struct {
	adm *admission.Controller
	cfg Config
	mux *http.ServeMux
	h   *host.Host
	def string // default tenant for the single-world routes; "" disables them

	// bes holds one backend per tenant, replaced whenever the tenant's
	// guard changes (evict + reopen, delete + recreate).
	bes sync.Map // string -> *backend

	// panics counts handler panics absorbed by the recover middleware
	// (read-path bugs: the engine quarantine is the guard's job).
	panics atomic.Uint64
}

// NewHost builds the HTTP handler over a caller-owned host.
// defaultTenant, when non-empty, must name a tenant that exists (or
// will exist) in the host: the single-world routes and /readyz
// follow it.
func NewHost(h *host.Host, defaultTenant string, cfg Config) *HostServer {
	s := &HostServer{
		adm: admission.New(cfg.Admission), cfg: cfg.withDefaults(), mux: http.NewServeMux(),
		h: h, def: defaultTenant,
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)

	s.mux.HandleFunc("POST /v1/tenants", s.lifecycle(s.handleCreate))
	s.mux.HandleFunc("GET /v1/tenants", s.lifecycle(s.handleList))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}", s.lifecycle(s.handleGet))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.lifecycle(s.handleDelete))

	pathTenant := func(r *http.Request) string { return r.PathValue("tenant") }
	s.mux.HandleFunc("GET /v1/t/{tenant}/infer", s.forTenant(admission.Read, pathTenant, s.infer))
	s.mux.HandleFunc("GET /v1/t/{tenant}/report/{ixp}", s.forTenant(admission.Cheap, pathTenant, func(w http.ResponseWriter, r *http.Request, be *backend) {
		s.report(w, r, be, r.PathValue("ixp"))
	}))
	s.mux.HandleFunc("POST /v1/t/{tenant}/apply", s.forTenant(admission.Write, pathTenant, s.apply))
	s.mux.HandleFunc("GET /v1/t/{tenant}/stream", s.forTenant(admission.Stream, pathTenant, s.stream))

	if defaultTenant != "" {
		def := func(*http.Request) string { return defaultTenant }
		s.mux.HandleFunc("GET /v1/infer", s.forTenant(admission.Read, def, s.infer))
		s.mux.HandleFunc("GET /v1/report/{ixp}", s.forTenant(admission.Cheap, def, func(w http.ResponseWriter, r *http.Request, be *backend) {
			s.report(w, r, be, r.PathValue("ixp"))
		}))
		s.mux.HandleFunc("POST /v1/apply", s.forTenant(admission.Write, def, s.apply))
		s.mux.HandleFunc("GET /v1/stream", s.forTenant(admission.Stream, def, s.stream))
	}
	return s
}

// Host exposes the underlying tenant host (expvar publication,
// shutdown wiring in the serving binary).
func (s *HostServer) Host() *host.Host { return s.h }

// forTenant is the per-tenant request spine: resolve the tenant name,
// apply the request deadline, pass shared admission with per-tenant
// fairness, take a host lease (first touch opens or recovers the
// engine — inside the admission slot, so cold starts are bounded by
// the class gate too), and hand the tenant's backend to the handler.
func (s *HostServer) forTenant(cl admission.Class, name func(*http.Request) string, fn func(http.ResponseWriter, *http.Request, *backend)) http.HandlerFunc {
	return s.admitted(cl, name, func(w http.ResponseWriter, r *http.Request, tn string) {
		lease, err := s.h.Lease(r.Context(), tn)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		defer lease.Release()
		fn(w, r, s.backendFor(tn, lease))
	})
}

// backendFor returns the tenant's backend — guard plus report/VP
// caches — creating or replacing it when the guard changed (the tenant
// was evicted and reopened, or deleted and recreated). Matching on the
// guard pointer is what keeps cached bytes from ever crossing engine
// instances: a backend only serves requests whose lease holds the same
// guard it was built for.
func (s *HostServer) backendFor(tn string, lease *host.Lease) *backend {
	g := lease.Guard()
	if v, ok := s.bes.Load(tn); ok {
		if be := v.(*backend); be.g == g {
			return be
		}
	}
	be := &backend{g: g}
	s.bes.Store(tn, be)
	return be
}

// lifecycle wraps tenant-management endpoints: cheap-class admission,
// no tenant attribution (they are control plane, not tenant traffic).
func (s *HostServer) lifecycle(h http.HandlerFunc) http.HandlerFunc {
	return s.admitted(admission.Cheap, func(*http.Request) string { return "" },
		func(w http.ResponseWriter, r *http.Request, _ string) { h(w, r) })
}

func (s *HostServer) handleCreate(w http.ResponseWriter, r *http.Request) {
	var sp host.TenantSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		http.Error(w, fmt.Sprintf("bad tenant spec: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.h.Create(sp); err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sp)
}

func (s *HostServer) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"tenants": s.h.Tenants()})
}

func (s *HostServer) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.h.Status(r.PathValue("tenant"))
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *HostServer) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	purge := r.URL.Query().Get("purge") == "1"
	if err := s.h.Delete(name, purge); err != nil {
		s.writeError(w, r, err)
		return
	}
	// The tenant's admission attribution and cached backend go with it;
	// a recreated tenant starts from zero on both.
	s.adm.ForgetTenant(name)
	s.bes.Delete(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz: host-level liveness — the process and registry are up.
func (s *HostServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "tenants": s.h.Len()})
}

// handleReadyz reports the default tenant's readiness: 503 until its
// first open completes, 503 + Retry-After while it is quarantined, 200
// otherwise (with its seq while its engine is open). Without a default tenant the host is ready
// once the registry is loaded — engines open lazily per tenant, and
// per-tenant health is what GET /v1/tenants reports.
func (s *HostServer) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.def == "" {
		s.writeJSON(w, http.StatusOK, map[string]any{"ready": true, "tenants": s.h.Len()})
		return
	}
	st, err := s.h.Status(s.def)
	switch {
	case err != nil || st.Opens == 0:
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false})
	case st.State == "quarantined":
		// Healing: stop routing new traffic here, but requests that do
		// arrive are answered from the last good snapshot.
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusServiceUnavailable,
			map[string]any{"ready": false, "quarantined": true})
	default:
		body := map[string]any{"ready": true}
		if st.State == "serving" { // an idle-evicted tenant has no live seq
			body["seq"] = st.AckedSeq
		}
		s.writeJSON(w, http.StatusOK, body)
	}
}
