package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"sam/internal/stats"
)

// Server exposes one Tracker (plus any extra snapshot sources such as the
// memo cache) over HTTP:
//
//	/metrics      Prometheus text exposition (namespace "sam"), rendered
//	              live from merged registry snapshots plus derived gauges
//	              (memo hit ratio, scrape-to-scrape jobs/s).
//	/progress     Tracker.Progress as JSON — per-sweep job states + ETA.
//	/healthz      200 "ok", or 503 "stalled" while the watchdog sees
//	              stalled running jobs.
//	/debug/pprof  the standard runtime profiles.
//
// Every handler reads snapshots (plain values), so scraping never blocks
// job callbacks beyond the tracker's brief snapshot lock.
type Server struct {
	t *Tracker

	mu      sync.Mutex
	sources []func() *stats.Snapshot
	prev    *stats.Snapshot
	prevAt  time.Time

	srv *http.Server
	ln  net.Listener
}

// NewServer wraps a tracker. Add extra snapshot sources with AddSource
// before or after Listen; Listen starts serving.
func NewServer(t *Tracker) *Server {
	return &Server{t: t}
}

// AddSource registers an extra snapshot producer merged into every
// /metrics scrape. fn must be goroutine-safe; it is called per scrape.
func (s *Server) AddSource(fn func() *stats.Snapshot) {
	s.mu.Lock()
	s.sources = append(s.sources, fn)
	s.mu.Unlock()
}

// Handler returns the endpoint mux (exported so tests can drive the
// surface with httptest instead of a real socket).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.AttachTo(mux)
	return mux
}

// AttachTo registers the telemetry endpoints on an existing mux — the
// seam that lets a host daemon (cmd/samd) serve /metrics, /progress,
// /healthz, and /debug/pprof alongside its own API on one listener.
func (s *Server) AttachTo(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/progress", s.progress)
	mux.HandleFunc("/healthz", s.healthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// merged snapshots the tracker and every source into one Snapshot, then
// layers on the derived gauges. The previous scrape's snapshot (kept
// under s.mu) supplies the counter deltas behind the rate gauges.
func (s *Server) merged() *stats.Snapshot {
	out := s.t.Snapshot()
	s.mu.Lock()
	sources := s.sources
	s.mu.Unlock()
	for _, src := range sources {
		// Source snapshots are independent registries; a bounds mismatch
		// would mean two sources reused one histogram name, which the
		// fixed instrument naming (obs.*, memo.*) rules out.
		_ = out.Merge(src())
	}
	now := time.Now()
	s.mu.Lock()
	d := out.Delta(s.prev)
	elapsed := now.Sub(s.prevAt)
	first := s.prev == nil
	s.prev = out
	s.prevAt = now
	s.mu.Unlock()

	if out.Gauges == nil {
		out.Gauges = make(map[string]stats.GaugeSnap)
	}
	// Memo hit ratio over the tracker's own attribution counters — the
	// per-job view (the memo.* source counts lookups cache-side).
	var hits, lookups uint64
	for _, outc := range []string{"hit", "disk-hit", "dedup", "miss"} {
		v := out.Counters[cMemoPfx+outc]
		lookups += v
		if outc != "miss" {
			hits += v
		}
	}
	if lookups > 0 {
		out.Gauges["obs.memo.hit_ratio"] = stats.GaugeSnap{Cur: float64(hits) / float64(lookups)}
	}
	// Scrape-to-scrape rate. The first scrape has no baseline interval,
	// so the rate starts at 0 rather than reporting since-process-start.
	if !first && elapsed > 0 {
		out.Gauges["obs.rate.jobs_per_s"] = stats.GaugeSnap{Cur: float64(d.Counters[cFinished]) / elapsed.Seconds()}
	}
	return out
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = stats.WriteProm(w, "sam", s.merged())
}

func (s *Server) progress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.t.Progress())
}

func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if n := s.t.CheckStalls(); n > 0 {
		http.Error(w, fmt.Sprintf("stalled: %d jobs past watchdog threshold", n), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// Listen binds addr (e.g. "127.0.0.1:9915", or ":0" for an ephemeral
// port) and serves in the background. Returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener (no-op if Listen was never called).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
