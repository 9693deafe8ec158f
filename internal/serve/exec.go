package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"sam/internal/core"
	"sam/internal/memo"
	"sam/internal/obs"
	"sam/internal/sim"
	"sam/internal/stats"
)

// executor turns accepted jobs into deterministic runs over the shared
// caches. Two cache tiers cooperate:
//
//   - runMemo (core.Memo) caches individual simulation runs under their
//     canonical fingerprints — shared with the batch CLIs' keyspace, so a
//     daemon that reuses a samfig -cache-dir starts warm.
//   - results (memo.Cache[jobResult]) caches whole job payloads under the
//     submission's content address. Its Lookup feeds admission-time
//     instant serves; each leader Puts its payload before the scheduler
//     retires it, so an identical submission either follows the running
//     leader or hits the cache, and no two leaders share a key.
//
// Determinism contract: every payload byte is derived from sweeps that
// are worker-count-invariant (runner.Map/Grid ordered results) and from
// codecs that are map-order-stable (sim.EncodeResult, sorted sweep keys),
// so N concurrent clients observe byte-identical results for identical
// submissions regardless of arrival order, dedup, and cache state — the
// differential the concurrent-client test pins against the CLIs.
type executor struct {
	runMemo *core.Memo
	results *memo.Cache[jobResult]
	// innerWorkers sizes the worker pool of one figure/sweep/reliability
	// job's internal sweep.
	innerWorkers int
	// tracker, when non-nil, observes inner sweeps under "samd:<label>"
	// scopes (memo attribution per simulation run, inner-job histograms).
	tracker *obs.Tracker
}

// newExecutor wires the two cache tiers.
func newExecutor(runMemo *core.Memo, maxResults, innerWorkers int, tracker *obs.Tracker) *executor {
	if innerWorkers < 1 {
		innerWorkers = 1
	}
	return &executor{
		runMemo: runMemo,
		results: memo.New(memo.Config[jobResult]{
			MaxEntries: maxResults,
			// Memory-only: the encoding is only byte accounting, so it is
			// the body itself (samd.results.bytes counts body bytes).
			Encode: func(r jobResult) ([]byte, error) { return r.Body, nil },
		}),
		innerWorkers: innerWorkers,
		tracker:      tracker,
	}
}

// lookup probes the job-result cache for admission-time instant serves.
func (e *executor) lookup(key string) (jobResult, string, bool) {
	res, out, ok := e.results.Lookup(key)
	if !ok {
		return jobResult{}, "", false
	}
	return res, out.String(), true
}

// resultStats exposes the job-result cache instruments re-prefixed as
// samd.results.* — the memo.* names stay reserved for the run-level cache
// (obs.Server merges source snapshots by name, so a shared prefix would
// silently sum the two tiers).
func (e *executor) resultStats() *stats.Snapshot {
	in := e.results.StatsSnapshot()
	out := &stats.Snapshot{
		Counters:   make(map[string]uint64, len(in.Counters)),
		Gauges:     in.Gauges,
		Histograms: in.Histograms,
	}
	for name, v := range in.Counters {
		out.Counters[strings.Replace(name, "memo.", "samd.results.", 1)] = v
	}
	return out
}

// run computes one leader job and stores its payload in the result cache
// (a result-cache miss). The returned memo string is the run tier's
// outcome, so a bench job whose simulation was already cached by a figure
// sweep reports "hit" even though the job itself was new.
func (e *executor) run(ctx context.Context, j *job) (jobResult, string, error) {
	res, out, err := e.compute(ctx, j)
	if err == nil {
		err = e.results.Put(j.key, res)
	}
	if err != nil {
		return jobResult{}, "", err
	}
	return res, out.String(), nil
}

// par builds the inner-sweep parallelism options for compound jobs.
func (e *executor) par(label string) core.Par {
	p := core.Par{Workers: e.innerWorkers, Memo: e.runMemo}
	if e.tracker != nil {
		p.Observer = e.tracker.Hooks("samd:" + label)
	}
	return p
}

// compute produces a job's payload. The inner memo.Outcome is meaningful
// for bench jobs (one run = one cache probe); compound jobs report Miss
// (their per-run attribution flows through the inner sweep's observer).
func (e *executor) compute(ctx context.Context, j *job) (jobResult, memo.Outcome, error) {
	req := j.req
	switch req.Kind {
	case KindBench:
		return e.computeBench(req)
	case KindFigure:
		return e.computeFigure(ctx, req)
	case KindSweep:
		return e.computeSweep(ctx, req)
	case KindReliability:
		return e.computeReliability(ctx, req)
	}
	return jobResult{}, memo.Miss, fmt.Errorf("serve: unvalidated job kind %q", req.Kind)
}

func (e *executor) computeBench(req *SubmitRequest) (jobResult, memo.Outcome, error) {
	kind, _ := core.KindByName(req.Bench.Design)
	q, _ := core.BenchQueryByName(req.Bench.Query)
	w := req.workload()
	var fm *sim.FaultModel
	if req.Bench.FaultRate > 0 {
		fm = &sim.FaultModel{Rate: req.Bench.FaultRate, Seed: req.Bench.FaultSeed}
		if fm.Seed == 0 {
			fm.Seed = w.Seed
		}
		if req.Bench.FaultRetries != nil {
			fm.MaxRetries = *req.Bench.FaultRetries
		} else {
			fm.MaxRetries = core.DefaultReliabilityCampaign().MaxRetries
		}
	}
	r, out, err := e.runMemo.RunOneFaultedObserved(kind, granOptions(req.Bench.Gran), w, q, fm)
	if err != nil {
		return jobResult{}, out, err
	}
	body, err := sim.EncodeResult(r)
	if err != nil {
		return jobResult{}, out, err
	}
	return jobResult{ContentType: "application/json", Body: body}, out, nil
}

// computeFigure renders the figure's table exactly as samfig prints it
// (minus the "== id ==" banner), so clients — and the CI smoke test —
// can byte-compare daemon output against the batch CLI.
func (e *executor) computeFigure(ctx context.Context, req *SubmitRequest) (jobResult, memo.Outcome, error) {
	w := req.workload()
	par := e.par(req.Figure.ID)
	var fig *core.Figure
	var err error
	switch req.Figure.ID {
	case "fig12":
		fig, err = core.Fig12(ctx, w, par)
	case "fig14a":
		fig, err = core.Fig14a(ctx, w, par)
	case "fig14b":
		fig, err = core.Fig14b(ctx, w, par)
	default:
		err = fmt.Errorf("serve: unvalidated figure %q", req.Figure.ID)
	}
	if err != nil {
		return jobResult{}, memo.Miss, err
	}
	return jobResult{
		ContentType: "text/plain; charset=utf-8",
		Body:        []byte(fig.Table().String()),
	}, memo.Miss, nil
}

// sweepPointOut is one grid cell in a sweep job's JSON payload.
type sweepPointOut struct {
	Selectivity  float64            `json:"selectivity"`
	Projectivity int                `json:"projectivity"`
	Speedups     map[string]float64 `json:"speedups"`
}

func (e *executor) computeSweep(ctx context.Context, req *SubmitRequest) (jobResult, memo.Outcome, error) {
	kind := core.Arithmetic
	if req.Sweep.Query == "aggr" {
		kind = core.Aggregate
	}
	records := req.Sweep.Records
	if records == 0 {
		records = 2048
	}
	type cell struct {
		sel  float64
		proj int
	}
	var cells []cell
	for _, sel := range req.Sweep.Selectivities {
		for _, p := range req.Sweep.Projectivities {
			cells = append(cells, cell{sel, p})
		}
	}
	par := e.par("sweep")
	out := make([]sweepPointOut, len(cells))
	// Points run serially; each point's per-design runs fan out on the
	// inner pool (mirroring samfig's fig15 loop). The ctx check between
	// points is the forced-drain cancellation boundary.
	for i, c := range cells {
		if err := ctx.Err(); err != nil {
			return jobResult{}, memo.Miss, err
		}
		p := core.SweepPoint{
			Query:       kind,
			Selectivity: c.sel,
			Projected:   c.proj,
			RecordBytes: req.Sweep.RecordBytes,
		}
		speedups, _, err := core.RunSweepPointStats(ctx, p, records, par)
		if err != nil {
			return jobResult{}, memo.Miss, err
		}
		out[i] = sweepPointOut{Selectivity: c.sel, Projectivity: c.proj, Speedups: speedups}
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return jobResult{}, memo.Miss, err
	}
	return jobResult{ContentType: "application/json", Body: body}, memo.Miss, nil
}

// reliabilityOut is a reliability job's JSON payload.
type reliabilityOut struct {
	Seed     uint64                   `json:"seed"`
	TotalSDC uint64                   `json:"total_sdc"`
	Cells    []core.ReliabilityResult `json:"cells"`
}

func (e *executor) computeReliability(ctx context.Context, req *SubmitRequest) (jobResult, memo.Outcome, error) {
	camp := core.DefaultReliabilityCampaign()
	if req.Reliability.Seed != 0 {
		camp.Seed = req.Reliability.Seed
	}
	if len(req.Reliability.Rates) > 0 {
		camp.Rates = req.Reliability.Rates
	}
	if req.Reliability.MaxRetries != nil {
		camp.MaxRetries = *req.Reliability.MaxRetries
	}
	results, err := core.RunReliability(ctx, camp, e.par("reliability"))
	if err != nil {
		return jobResult{}, memo.Miss, err
	}
	payload := reliabilityOut{Seed: camp.Seed, Cells: results}
	for _, r := range results {
		payload.TotalSDC += r.SilentCorruptions()
	}
	body, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		return jobResult{}, memo.Miss, err
	}
	return jobResult{ContentType: "application/json", Body: body}, memo.Miss, nil
}
