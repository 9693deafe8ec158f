package main

import (
	"io"
	"path/filepath"
	"reflect"
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
			"trace-csv": {traceCSV: filepath.Join(dir, "t.csv"), traceWindow: 2048, traceLimit: etrace.DefaultCapacity},
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
