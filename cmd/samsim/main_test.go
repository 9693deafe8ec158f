package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/sim"
)

// TestExtrasKeepResult pins that attaching extras does not change what is
// simulated: a traced run and a run with a fault rate too low to fire
// must equal the plain core.RunOne result. The two cases cover the rules
// a hand-built system used to drop — the Qs full-record scan (SAM-en Qs1)
// and the Ideal design's column store for Q-class queries (ideal Q3).
func TestExtrasKeepResult(t *testing.T) {
	w := core.Workload{TaRecords: 512, TbRecords: 2048, Seed: core.DefaultWorkload().Seed}
	dir := t.TempDir()
	for _, c := range []struct {
		kind  design.Kind
		query string
	}{{design.SAMEn, "Qs1"}, {design.Ideal, "Q3"}} {
		q, ok := core.BenchQueryByName(c.query)
		if !ok {
			t.Fatalf("no benchmark query %s", c.query)
		}
		plain, err := core.RunOne(c.kind, design.Options{}, w, q)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]extras{
			"trace-csv": {events: etrace.Flags{CSV: filepath.Join(dir, "t.csv"), Window: 2048, Limit: etrace.DefaultCapacity}},
			"fault-rate": {faults: &sim.FaultModel{Rate: 1e-9, Seed: w.Seed,
				MaxRetries: core.DefaultReliabilityCampaign().MaxRetries}},
		} {
			got, err := runWithExtras(c.kind, w, q, x, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Cycles != plain.Stats.Cycles || got.Stats.MemRequests != plain.Stats.MemRequests ||
				got.Rows != plain.Rows || !reflect.DeepEqual(got.Aggregates, plain.Aggregates) {
				t.Errorf("%v %s with %s: %d cycles, %d requests, %d rows; plain run: %d cycles, %d requests, %d rows",
					c.kind, c.query, name, got.Stats.Cycles, got.Stats.MemRequests, got.Rows,
					plain.Stats.Cycles, plain.Stats.MemRequests, plain.Rows)
			}
		}
	}
}

// TestFailedRunKeepsProfiles pins that a run ending in an error still
// stops the profiler: both profiles are written, non-empty and
// gzip-framed, instead of being left as the 0-byte files an exit that
// skips the stop leaves behind.
func TestFailedRunKeepsProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	err := run([]string{"-bench", "Q99", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Q99") {
		t.Fatalf("run returned %v, want the unknown-query error", err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip-framed profile", filepath.Base(path), len(b))
		}
	}
}

// TestCompareTracesBaseline pins -compare -trace-out: one Chrome file that
// validates and carries the baseline's timeline ahead of the design's.
func TestCompareTracesBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "duel.json")
	var out bytes.Buffer
	err := run([]string{"-design", "SAM-en", "-bench", "Q3", "-compare",
		"-ta", "512", "-tb", "2048", "-trace-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := etrace.ValidateChrome(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	base, des := bytes.Index(data, []byte(`"baseline/ch0"`)), bytes.Index(data, []byte(`"SAM-en/ch0"`))
	if base < 0 || des < base {
		t.Fatalf("baseline process at %d, SAM-en at %d: want both, baseline first", base, des)
	}
	if !strings.Contains(out.String(), "speedup vs baseline") {
		t.Fatalf("no speedup line in:\n%s", out.String())
	}
}
