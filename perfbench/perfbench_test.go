package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden.json from full-scale runs (slow)")

// TestMain lets the test binary serve as its own set-up probe, the way the
// benchmark binary does (see measureSetup).
func TestMain(m *testing.M) {
	if spec := os.Getenv(setupProbeEnv); spec != "" {
		os.Exit(runSetupProbe(spec))
	}
	os.Exit(m.Run())
}

func shortConfig(t *testing.T, workload string, trace bool) config {
	return config{
		Workload:  workload,
		Seed:      DefaultSeed,
		Seconds:   time.Second,
		Trace:     trace,
		Short:     true,
		Workers:   2,
		SpansPath: filepath.Join(t.TempDir(), "spans.jsonl"),
		Poll:      defaultPoll,
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the catalogue must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, catalogue %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestShortWorkloadsEmitEveryMetric runs every workload at test scale,
// untraced and traced, and checks that each catalogue metric is printed
// with its unit and that every output check passes.
func TestShortWorkloadsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := shortConfig(t, name, trace)
			rep, meta, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			cat := endToEnd
			if trace {
				cat = perLayer
			}
			if len(rep.Metrics) != len(cat) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.Metrics), len(cat))
			}
			for _, m := range cat {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if !trace {
				for _, m := range endToEnd {
					if rep.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, rep.Metrics[m.Name].Value)
					}
				}
				continue
			}
			if n := rep.Metrics["replay.unresolved"].Value; n != 0 {
				t.Errorf("%s: %v replayed layers unresolved", name, n)
			}
			if rep.Metrics["sim.mem_requests"].Value <= 0 || rep.Metrics["placer.txns"].Value <= 0 {
				t.Errorf("%s: traced run replayed nothing", name)
			}
			if _, err := os.Stat(cfg.SpansPath); err != nil {
				t.Errorf("%s: span file: %v", name, err)
			}
			for _, k := range []string{"cpu_model", "nproc", "gomaxprocs", "go_version", "commit", "seed", "workers"} {
				if _, ok := meta[k]; !ok {
					t.Errorf("%s: metadata lacks %s", name, k)
				}
			}
		}
	}
}

// TestDigestGateCatchesPerturbation: a result that differs from the
// golden in one simulated statistic fails exactly that cell.
func TestDigestGateCatchesPerturbation(t *testing.T) {
	cfg := shortConfig(t, "col-read", false)
	in := colReadInputs(cfg)
	p, errs := colReadPass(context.Background(), in, cfg.Workers)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	var clean outcome
	want := digestGate(in.Cells, p.Results, nil, &clean)
	if clean.Failed != 0 {
		t.Fatalf("clean pass failed %d cells", clean.Failed)
	}
	perturbed := *p.Results[1]
	perturbed.Stats.Cycles++
	p.Results[1] = &perturbed
	var o outcome
	digestGate(in.Cells, p.Results, want, &o)
	if o.Failed != 1 {
		t.Fatalf("perturbed pass failed %d cells, want 1", o.Failed)
	}
}

// TestRefusedSubmissionCountsAsFailed drives the closed loop against a
// server that refuses every submission the way a full samd does.
func TestRefusedSubmissionCountsAsFailed(t *testing.T) {
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(code)
			_, _ = w.Write([]byte(`{"error":"refused"}`))
		}))
		in := samdMixInputs(shortConfig(t, "samd-mix", false))
		lp := closedLoop(&daemon{srv: srv}, in, 2, defaultPoll, nil)
		srv.Close()
		var o outcome
		gateJobs(in, lp, map[int][]byte{}, &o)
		if o.Attempted != len(in.Seq) || o.Failed != o.Attempted {
			t.Errorf("HTTP %d: attempted %d failed %d, want %d/%d", code, o.Attempted, o.Failed, len(in.Seq), len(in.Seq))
		}
	}
}

// TestGateComparesAcrossRounds: a key whose body on a later round's
// daemon differs from its first round's body fails every such job.
func TestGateComparesAcrossRounds(t *testing.T) {
	in := samdMixInputs(shortConfig(t, "samd-mix", false))
	round := func(body string) *loopOut {
		lp := &loopOut{Bodies: map[int][]byte{0: []byte(body)}}
		for i := 0; i < 3; i++ {
			lp.Jobs = append(lp.Jobs, jobRecord{Key: 0, Pos: i, Outcome: "done", BodySum: sha256.Sum256([]byte(body))})
		}
		return lp
	}
	ref := map[int][]byte{}
	var o outcome
	gateJobs(in, round("first"), ref, &o)
	gateJobs(in, round("first"), ref, &o)
	if o.Failed != 0 {
		t.Fatalf("identical rounds failed %d jobs", o.Failed)
	}
	gateJobs(in, round("recomputed differently"), ref, &o)
	if o.Attempted != 9 || o.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 9/3", o.Attempted, o.Failed)
	}
}

// TestSamdInputsDeterministic: one seed, one job stream; another seed,
// another stream over the same key cycle.
func TestSamdInputsDeterministic(t *testing.T) {
	cfg := config{Seed: DefaultSeed}
	a, b := samdMixInputs(cfg), samdMixInputs(cfg)
	cfg.Seed = HeldOutSeed
	c := samdMixInputs(cfg)
	same := func(x, y *samdInputs) bool {
		if len(x.Seq) != len(y.Seq) {
			return false
		}
		for i := range x.Seq {
			if string(x.Bodies[i]) != string(y.Bodies[i]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed gave different job streams")
	}
	if same(a, c) {
		t.Fatal("different seeds gave the same job stream")
	}
	var misses, faulted int
	for _, k := range a.Keys {
		misses++
		if k.FaultRate > 0 {
			faulted++
		}
	}
	if misses*100 < len(a.Seq) || 3*faulted < misses/2 {
		t.Fatalf("%d distinct keys (%d faulted) in %d jobs", misses, faulted, len(a.Seq))
	}
}

// TestUpdateGolden rewrites golden.json: full-scale digests for the
// default and held-out seeds, test-scale digests for the default seed.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden.json")
	}
	all := map[string][]string{}
	for _, w := range []struct {
		name   string
		inputs func(config) *simInputs
		pass   simPassFunc
	}{{"col-read", colReadInputs, colReadPass}, {"row-write-4ch", rowWriteInputs, rowWritePass}} {
		for _, v := range []struct {
			short bool
			seed  uint64
		}{{true, DefaultSeed}, {false, DefaultSeed}, {false, HeldOutSeed}} {
			cfg := config{Seed: v.seed, Short: v.short, Workers: 2}
			in := w.inputs(cfg)
			p, errs := w.pass(context.Background(), in, cfg.Workers)
			if len(errs) > 0 {
				t.Fatal(errs)
			}
			var o outcome
			all[goldenKey(w.name, v.short, v.seed)] = digestGate(in.Cells, p.Results, nil, &o)
			if o.Failed != 0 {
				t.Fatalf("%s: %v", w.name, o.Notes)
			}
		}
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
