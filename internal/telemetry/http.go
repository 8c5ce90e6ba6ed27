package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Mount attaches an extra handler to the telemetry mux — how surfaces
// beside the metrics (the pprof handlers, PprofMounts) ride on the daemon's
// single telemetry endpoint.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format at /metrics and a JSON snapshot of metrics plus the tracer's
// recent events at /debug/sdx, with any extra mounts attached. Registry
// and tracer may be nil.
func Handler(reg *Registry, tr *Tracer, mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/sdx", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Snapshot(reg, tr))
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

// DebugSnapshot is the JSON document served at /debug/sdx.
type DebugSnapshot struct {
	Metrics []JSONMetric `json:"metrics"`
	Events  []JSONEvent  `json:"events"`
}

// JSONMetric is one series in the JSON exposition. Histograms carry their
// summary (count/sum) plus per-bucket cumulative counts keyed by bound.
type JSONMetric struct {
	Name    string            `json:"name"`
	Type    string            `json:"type"`
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// JSONEvent is one tracer event in the JSON exposition.
type JSONEvent struct {
	Time  time.Time         `json:"time"`
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Snapshot resolves the registry and tracer into the /debug/sdx document.
func Snapshot(reg *Registry, tr *Tracer) DebugSnapshot {
	snap := DebugSnapshot{Metrics: []JSONMetric{}, Events: []JSONEvent{}}
	for _, f := range reg.sortedFamilies() {
		for _, s := range f.snapshot() {
			m := JSONMetric{Name: f.name, Type: f.kind.String()}
			if len(f.labelNames) > 0 {
				m.Labels = make(map[string]string, len(f.labelNames))
				for i, n := range f.labelNames {
					if i < len(s.labels) {
						m.Labels[n] = s.labels[i]
					}
				}
			}
			if s.hist != nil {
				count, sum := s.hist.count, s.hist.sum
				m.Count, m.Sum = &count, &sum
				m.Buckets = make(map[string]uint64, len(s.hist.bounds)+1)
				cum := uint64(0)
				for i, b := range s.hist.bounds {
					cum += s.hist.counts[i]
					m.Buckets[formatValue(b)] = cum
				}
				m.Buckets["+Inf"] = count
			} else {
				v := s.value
				m.Value = &v
			}
			snap.Metrics = append(snap.Metrics, m)
		}
	}
	for _, e := range tr.Recent(0) {
		je := JSONEvent{Time: e.Time, Name: e.Name}
		if len(e.Attrs) > 0 {
			je.Attrs = make(map[string]string, len(e.Attrs))
			for _, a := range e.Attrs {
				je.Attrs[a.Key] = a.Value
			}
		}
		snap.Events = append(snap.Events, je)
	}
	return snap
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

// Serve binds addr and serves Handler(reg, tr, mounts...) on a background
// goroutine.
func Serve(addr string, reg *Registry, tr *Tracer, mounts ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(reg, tr, mounts...)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}
