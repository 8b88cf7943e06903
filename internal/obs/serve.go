package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"sort"
	"sync"
)

// Live telemetry endpoints: an opt-in HTTP listener exposing the default
// registry as Prometheus text (/metrics), liveness wired to registered
// health sources such as breaker and pool state (/healthz), compiled-plan
// metadata (/debug/plans), recent sampled request traces
// (/debug/requests, ?format=chrome for a per-lane Chrome trace), the
// rolling profiler table (/debug/profile), and the default tracer's spans
// (/debug/trace). Everything is pull-based: handlers snapshot shared
// state under the same locks the hot path uses, so scraping a live
// serving process is safe.

// HealthStatus is one health source's report.
type HealthStatus struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// sources is a set of named callbacks. A registration replaces any earlier
// one of the same name, and the function it returns removes it only while
// it is still the current one: closing an old pool or fleet leaves the
// entry of a newer one with the same name in place.
type sources[F any] struct {
	mu sync.Mutex
	m  map[string]*F
}

func (s *sources[F]) register(name string, fn F) (unregister func()) {
	p := &fn
	s.mu.Lock()
	if s.m == nil {
		s.m = map[string]*F{}
	}
	s.m[name] = p
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		if s.m[name] == p {
			delete(s.m, name)
		}
		s.mu.Unlock()
	}
}

// snapshot returns the current callbacks by name.
func (s *sources[F]) snapshot() map[string]F {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]F, len(s.m))
	for name, p := range s.m {
		out[name] = *p
	}
	return out
}

var (
	healthSources sources[func() HealthStatus]
	debugSources  sources[func() any]
)

// RegisterHealth installs (or replaces) a named health source consulted
// by /healthz, and returns the function that removes this registration.
// The runtime registers breaker and session-pool state here.
func RegisterHealth(name string, fn func() HealthStatus) (unregister func()) {
	return healthSources.register(name, fn)
}

// Health runs every registered source and reports overall liveness.
func Health() (ok bool, checks map[string]HealthStatus) {
	fns := healthSources.snapshot()
	ok = true
	checks = make(map[string]HealthStatus, len(fns))
	for name, fn := range fns {
		st := fn()
		checks[name] = st
		ok = ok && st.OK
	}
	return ok, checks
}

// RegisterDebug installs (or replaces) a named debug source served as
// JSON at /debug/<name>, and returns the function that removes this
// registration. The runtime registers "plans" (compiled-plan metadata)
// and "fleet" here.
func RegisterDebug(name string, fn func() any) (unregister func()) {
	return debugSources.register(name, fn)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the telemetry endpoint mux backed by the package
// defaults (registry, SLO monitor, profiler, request tracker, tracer).
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		DefaultSLO.Publish() // refresh slo.* gauges before exposition
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		DefaultRegistry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		ok, checks := Health()
		status := http.StatusOK
		if !ok {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, struct {
			OK     bool                    `json:"ok"`
			Checks map[string]HealthStatus `json:"checks"`
		}{ok, checks})
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			DefaultRequests.WriteChromeTrace(w)
			return
		}
		writeJSON(w, http.StatusOK, DefaultRequests.Snapshot())
	})
	mux.HandleFunc("/debug/profile", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, Profile())
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, DefaultSLO.Publish())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		DefaultTracer.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/", func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Path[len("/debug/"):]
		fns := debugSources.snapshot()
		fn, ok := fns[name]
		if !ok {
			names := make([]string, 0, len(fns))
			for n := range fns {
				names = append(names, n)
			}
			sort.Strings(names)
			writeJSON(w, http.StatusNotFound, struct {
				Error   string   `json:"error"`
				Sources []string `json:"sources"`
			}{"unknown debug source " + name, names})
			return
		}
		writeJSON(w, http.StatusOK, fn())
	})
	return mux
}

// Server is a running telemetry listener; Close shuts it down.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the telemetry endpoints on addr (e.g. "localhost:9090";
// ":0" picks a free port — read it back with Addr). The listener runs on
// a background goroutine until Close.
func Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler()}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
