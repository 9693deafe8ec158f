package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed layer call. Spans of one cell or job share Group;
// Parent names the enclosing span of the same group ("" for the root).
type span struct {
	Name   string `json:"name"`
	Group  uint64 `json:"group"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; write dumps them at the
// end. A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, group uint64, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Group: group, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one JSON line, creating the file's directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its child spans (same group, Parent = its name) cover. Children of one
// parent never overlap here: every traced caller makes them in sequence.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	type gk struct {
		group uint64
		name  string
	}
	child := map[gk]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			child[gk{s.Group, s.Parent}] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start
		if s.Parent == "" {
			d -= child[gk{s.Group, s.Name}]
		}
		out[s.Name] += time.Duration(d)
	}
	return out
}

// printSplit writes the traced run's human-readable summary: the
// self-time split by layer and the tracing overhead.
func printSplit(w io.Writer, v map[string]float64) {
	fmt.Fprintf(w, "perfbench: self-time split (replayed layers, resolved cells):\n")
	for _, l := range []string{"placer", "cache", "mc", "sim.self"} {
		name := l + ".ms"
		if l == "sim.self" {
			name = "sim.self_ms"
		}
		share := l + ".share"
		if l == "sim.self" {
			share = "sim.self_share"
		}
		fmt.Fprintf(w, "  %-9s %10.1f ms  %5.1f%%\n", l, v[name], 100*v[share])
	}
	if v["fault.ms"] != 0 {
		fmt.Fprintf(w, "  %-9s %10.1f ms  (mc replay with the fault probe minus without)\n", "fault", v["fault.ms"])
	}
	if n := v["replay.unresolved"]; n > 0 {
		fmt.Fprintf(w, "  %v cell layer(s) unresolved: replay diverged from the real run; excluded above\n", n)
	}
	fmt.Fprintf(w, "perfbench: tracing overhead: traced pass took %+.1f%% over the untraced pass\n", 100*v["trace.overhead_frac"])
}
