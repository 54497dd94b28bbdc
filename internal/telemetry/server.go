package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"identxx/internal/trace"
)

// Server bundles a Registry and a Health set behind one HTTP listener:
//
//	GET /metrics      — Prometheus text exposition
//	GET /healthz      — liveness
//	GET /readyz       — readiness
//	GET /trace        — flight-recorder JSON-lines (after MountTrace)
//	Views             — operator views and mutations (after MountOperator)
//	GET /debug/pprof/ — Go profiling (after EnablePprof)
//
// Both identctl (controller role) and identd (daemon role) mount one; the
// wiring helpers decide what gets registered. identctl's is its only
// operator listener.
type Server struct {
	Registry *Registry
	Health   *Health

	mux *http.ServeMux
	srv *http.Server
}

// NewServer creates a server with a fresh registry and health set. Call
// Start to listen on an address.
func NewServer() *Server {
	s := &Server{
		Registry: NewRegistry(),
		Health:   NewHealth(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.metricsHandler)
	mux.HandleFunc("/healthz", s.Health.LiveHandler)
	mux.HandleFunc("/readyz", s.Health.ReadyHandler)
	s.mux = mux
	s.srv = &http.Server{
		Handler: mux,
		// Scrapes are small and local; generous-but-bounded timeouts keep a
		// stuck scraper from pinning goroutines.
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	return s
}

func (s *Server) metricsHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Errors past the header are connection failures; nothing to do.
	_ = s.Registry.WritePrometheus(w)
}

// MountTrace exposes the flight recorder's retained traces as JSON-lines
// on GET /trace:
//
//	/trace             — every retained trace, oldest first
//	/trace?slow=1      — slow-threshold captures only
//	/trace?id=<hex id> — every retained trace with that ID
//
// The export is a snapshot copy; scraping never blocks the decision path.
func (s *Server) MountTrace(rec *trace.Recorder) {
	s.mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		var traces []trace.Trace
		q := req.URL.Query()
		switch {
		case q.Get("id") != "":
			id, err := trace.ParseID(q.Get("id"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			traces = rec.Find(id)
		case q.Get("slow") != "":
			traces = rec.Slow()
		default:
			traces = rec.Traces()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSON(w, traces)
	})
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on this
// server's mux (never on http.DefaultServeMux). Gated behind a flag in
// both binaries — see the operations guide for the safety trade-offs.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start listens on addr and serves in a background goroutine. The returned
// address carries the resolved port (useful with ":0").
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		// ErrServerClosed after Close; anything else means the listener
		// died, which the next scrape will notice.
		_ = s.srv.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error {
	return s.srv.Close()
}
