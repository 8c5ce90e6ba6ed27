package telemetry

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// Mount attaches an extra handler to the telemetry mux — how surfaces
// beside the metrics (the pprof handlers, PprofMounts) ride on the daemon's
// single telemetry endpoint.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format at /metrics, with any extra mounts attached. The registry may be
// nil.
func Handler(reg *Registry, mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
	}
	return mux
}

// PprofMounts returns the standard net/http/pprof handlers as telemetry
// mounts, so daemons can expose CPU/heap/block profiles on the telemetry
// endpoint they already serve instead of registering pprof on the global
// http.DefaultServeMux (which the telemetry mux deliberately avoids).
func PprofMounts() []Mount {
	return []Mount{
		{Pattern: "/debug/pprof/", Handler: http.HandlerFunc(pprof.Index)},
		{Pattern: "/debug/pprof/cmdline", Handler: http.HandlerFunc(pprof.Cmdline)},
		{Pattern: "/debug/pprof/profile", Handler: http.HandlerFunc(pprof.Profile)},
		{Pattern: "/debug/pprof/symbol", Handler: http.HandlerFunc(pprof.Symbol)},
		{Pattern: "/debug/pprof/trace", Handler: http.HandlerFunc(pprof.Trace)},
	}
}

// Server is a running telemetry HTTP endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr and serves Handler(reg, mounts...) on a background
// goroutine.
func Serve(addr string, reg *Registry, mounts ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, mounts...)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
