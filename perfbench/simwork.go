package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/runner"
	"sam/internal/sim"
)

// simCell is one simulation of a simulator workload.
type simCell struct {
	Kind     design.Kind
	Query    core.BenchQuery
	Channels int
}

func (c simCell) String() string {
	return fmt.Sprintf("%s/%v/ch%d", c.Query.Name, c.Kind, c.Channels)
}

// simInputs is everything a simulator workload's program receives: the
// table seed (through the workload) and the cell list.
type simInputs struct {
	W       core.Workload
	Queries []core.BenchQuery
	// Kinds are the designs compared against the baseline (col-read) or
	// run beside it (row-write-4ch, where Kinds includes the baseline).
	Kinds []design.Kind
	// Cells are query-major: for col-read each query's baseline cell comes
	// first, then Kinds in order.
	Cells []simCell
}

// splitmix64 derives independent seeds from the benchmark seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tableWorkload is the database scale with the table seed drawn from the
// benchmark seed.
func tableWorkload(cfg config) core.Workload {
	w := core.DefaultWorkload()
	if cfg.Short {
		w = core.SmallWorkload()
	}
	w.Seed = splitmix64(cfg.Seed)
	return w
}

func queriesByName(names ...string) []core.BenchQuery {
	out := make([]core.BenchQuery, len(names))
	for i, n := range names {
		q, ok := core.BenchQueryByName(n)
		if !ok {
			panic("perfbench: unknown query " + n)
		}
		out[i] = q
	}
	return out
}

// colReadInputs: the column-preferring read queries (Q7 is the join) on
// the strided designs, 1 channel, fault-free.
func colReadInputs(cfg config) *simInputs {
	in := &simInputs{W: tableWorkload(cfg)}
	if cfg.Short {
		in.Queries = queriesByName("Q3", "Q7")
		in.Kinds = []design.Kind{design.SAMEn, design.GSDRAMecc}
	} else {
		in.Queries = queriesByName("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q9", "Q10")
		in.Kinds = []design.Kind{design.SAMEn, design.SAMIO, design.SAMSub, design.GSDRAMecc, design.RCNVMWd}
	}
	for _, q := range in.Queries {
		in.Cells = append(in.Cells, simCell{Kind: design.Baseline, Query: q, Channels: 1})
		for _, k := range in.Kinds {
			in.Cells = append(in.Cells, simCell{Kind: k, Query: q, Channels: 1})
		}
	}
	return in
}

// rowWriteInputs: the row-preferring scans, inserts and updates on a
// 4-channel geometry.
func rowWriteInputs(cfg config) *simInputs {
	in := &simInputs{W: tableWorkload(cfg)}
	if cfg.Short {
		in.Queries = queriesByName("Qs1", "Qs5", "Q11")
		in.Kinds = []design.Kind{design.Baseline, design.SAMEn}
	} else {
		in.Queries = queriesByName("Qs1", "Qs2", "Qs3", "Qs4", "Qs5", "Qs6", "Q11", "Q12")
		in.Kinds = []design.Kind{design.Baseline, design.GSDRAMecc, design.SAMEn, design.RCNVMBit}
	}
	for _, q := range in.Queries {
		for _, k := range in.Kinds {
			in.Cells = append(in.Cells, simCell{Kind: k, Query: q, Channels: 4})
		}
	}
	return in
}

// newSystem builds cell c's system exactly as the workload's real path
// does: core.NewSystem for one channel (what RunComparison builds), and
// design.New + Geometry.Channels + sim.NewSystem for the multi-channel
// geometry.
func newSystem(w core.Workload, c simCell, fm *sim.FaultModel) *sim.System {
	var s *sim.System
	if c.Channels <= 1 {
		s = core.NewSystem(c.Kind, design.Options{}, w, false)
	} else {
		d := design.New(c.Kind, design.Options{})
		d.Mem.Geometry.Channels = c.Channels
		s = sim.NewSystem(d)
		s.AddTable(imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed), false)
		s.AddTable(imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1), false)
	}
	s.Faults = fm
	return s
}

// cellTimer observes runner sweeps (a public hook of internal/runner) and
// records each item's start-to-finish host time into dur[base+i], where i
// is the item's index in the sweep; sweeps run one at a time, so base is
// set before each.
type cellTimer struct {
	mu    sync.Mutex
	base  int
	start map[int]time.Time
	dur   []float64 // ms, by cell
}

func newCellTimer(cells int) *cellTimer {
	return &cellTimer{start: map[int]time.Time{}, dur: make([]float64, cells)}
}

func (t *cellTimer) SweepStarted(int) runner.SweepSpan { return t }

func (t *cellTimer) JobStarted(i, _ int) {
	now := time.Now()
	t.mu.Lock()
	t.start[t.base+i] = now
	t.mu.Unlock()
}

func (t *cellTimer) JobAnnotate(int, string, string) {}

func (t *cellTimer) JobFinished(i, _ int, _ error) {
	end := time.Now()
	t.mu.Lock()
	t.dur[t.base+i] = float64(end.Sub(t.start[t.base+i])) / 1e6
	t.mu.Unlock()
}

// passOut is one pass over every cell of a simulator workload.
type passOut struct {
	Results []*sim.QueryResult // cell order; nil = the cell failed
	Wall    time.Duration
	CellMS  []float64 // host time of each cell, cell order
}

func (p *passOut) requests() uint64 {
	var n uint64
	for _, r := range p.Results {
		if r != nil {
			n += r.Stats.MemRequests
		}
	}
	return n
}

// colReadPass runs every query through core.RunComparison on a fresh
// in-process run memo — the samfig path. The memo is what returns the
// baseline cells afterwards (as hits, outside the timed region).
func colReadPass(ctx context.Context, in *simInputs, workers int) (*passOut, []error) {
	m := core.NewMemo(core.MemoOptions{})
	timer := newCellTimer(len(in.Cells))
	par := core.Par{Workers: workers, Memo: m, Observer: timer}
	out := &passOut{Results: make([]*sim.QueryResult, len(in.Cells))}
	var errs []error
	stride := len(in.Kinds) + 1
	start := time.Now()
	for qi, q := range in.Queries {
		timer.base = qi * stride // RunComparison's items: baseline, then Kinds
		res, err := core.RunComparison(ctx, in.Kinds, design.Options{}, in.W, q, par)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for ki, r := range res {
			out.Results[qi*stride+1+ki] = r.Result
		}
	}
	out.Wall = time.Since(start)
	for qi, q := range in.Queries {
		if out.Results[qi*stride+1] == nil {
			continue // the comparison failed; the baseline is not trusted either
		}
		r, err := m.RunOne(design.Baseline, design.Options{}, in.W, q)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		out.Results[qi*stride] = r
	}
	out.CellMS = timer.dur
	return out, errs
}

// rowWritePass runs every cell on its 4-channel system under runner.Map.
func rowWritePass(ctx context.Context, in *simInputs, workers int) (*passOut, []error) {
	timer := newCellTimer(len(in.Cells))
	start := time.Now()
	res, err := runner.Map(ctx, in.Cells, runner.Options{Workers: workers, Observer: timer},
		func(_ context.Context, _ int, c simCell) (*sim.QueryResult, error) {
			r, err := core.RunOn(newSystem(in.W, c, nil), c.Query)
			if err != nil {
				return nil, fmt.Errorf("%v: %w", c, err)
			}
			return r, nil
		})
	out := &passOut{Results: res, Wall: time.Since(start), CellMS: timer.dur}
	var errs []error
	if err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, functionalErrors(in, res)...)
	return out, errs
}

// functionalErrors applies the baseline equivalence check RunComparison
// makes to a row-write pass: every design returns the baseline's rows and
// checksums for the same query.
func functionalErrors(in *simInputs, res []*sim.QueryResult) []error {
	var errs []error
	n := len(in.Kinds)
	for qi, q := range in.Queries {
		base := res[qi*n]
		for ki := 1; ki < n; ki++ {
			r := res[qi*n+ki]
			if base == nil || r == nil {
				continue
			}
			if r.Rows != base.Rows || r.ProjChecks != base.ProjChecks || r.ArithChecks != base.ArithChecks {
				errs = append(errs, fmt.Errorf("%s on %v: functional mismatch with baseline", q.Name, in.Kinds[ki]))
				res[qi*n+ki] = nil
			}
		}
	}
	return errs
}

// cellDigest is the first 8 bytes of SHA-256 over sim.EncodeResult — the
// versioned codec the run memo and samd bodies use.
func cellDigest(r *sim.QueryResult) (string, error) {
	b, err := sim.EncodeResult(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// digestGate compares each cell's digest with want (the golden for this
// seed, or the run's first pass when the seed has none; nil checks
// nothing), counts every mismatching or missing cell as failed, and
// returns the digests.
func digestGate(cells []simCell, results []*sim.QueryResult, want []string, o *outcome) []string {
	got := make([]string, len(results))
	for i, r := range results {
		if r == nil {
			o.fail(1, "%v: no result", cells[i])
			continue
		}
		d, err := cellDigest(r)
		if err != nil {
			o.fail(1, "%v: encode: %v", cells[i], err)
			continue
		}
		got[i] = d
		if want != nil && (i >= len(want) || want[i] != d) {
			exp := "<none>"
			if i < len(want) {
				exp = want[i]
			}
			o.fail(1, "%v: result digest %s, golden %s", cells[i], d, exp)
		}
	}
	return got
}

// simPassFunc is one workload's pass.
type simPassFunc func(context.Context, *simInputs, int) (*passOut, []error)

// runSim runs either simulator workload: set-up (input generation), then
// passes over every cell until the measurement time is spent, each pass
// gated on its digests.
func runSim(cfg config, name string, inputs func(config) *simInputs, pass simPassFunc) (*outcome, error) {
	in := inputs(cfg)
	if setupDone(cfg) {
		return nil, nil
	}
	o := &outcome{}
	golden := goldenFor(name, cfg)
	o.Meta = map[string]any{"cells": len(in.Cells),
		"table_seed": in.W.Seed, "ta_records": in.W.TaRecords, "tb_records": in.W.TbRecords,
		"golden": golden != nil}
	if cfg.Trace {
		return o, tracedSim(cfg, name, in, pass, golden, o)
	}
	ctx := context.Background()
	var mreq, jobs []float64
	cellMS := make([][]float64, len(in.Cells))
	deadline := time.Now().Add(cfg.Seconds)
	want := golden
	var last *passOut
	for passes := 0; passes == 0 || (!cfg.Short && time.Now().Before(deadline)); passes++ {
		p, errs := pass(ctx, in, cfg.Workers)
		for _, err := range errs {
			o.note("FAIL: %v", err)
		}
		o.Attempted += len(in.Cells)
		got := digestGate(in.Cells, p.Results, want, o)
		if want == nil {
			want = got
		}
		mreq = append(mreq, float64(p.requests())/p.Wall.Seconds()/1e6)
		jobs = append(jobs, float64(len(in.Cells))/p.Wall.Seconds())
		for i, d := range p.CellMS {
			cellMS[i] = append(cellMS[i], d)
		}
		last = p
	}
	o.set("sim_mreq_per_s", median(mreq))
	o.set("jobs_per_s", median(jobs))
	// Each cell's latency is its median over the passes (the cell set
	// repeats every pass); p50 and p99 are taken over the cells, so p99
	// is the slowest cells — the joins.
	med := make([]float64, len(cellMS))
	for i, ds := range cellMS {
		med[i] = median(ds)
	}
	o.set("job_p50_ms", quantile(med, 0.5))
	o.set("job_p99_ms", quantile(med, 0.99))
	o.Meta["passes_mreq_per_s"] = mreq
	// The last pass's results are still live here: what a samfig caller
	// holds until it prints.
	memoryMetrics(o)
	runtime.KeepAlive(last)
	return o, nil
}

// memoryMetrics reads the process's peak RSS and its live heap after a
// forced collection.
func memoryMetrics(o *outcome) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.set("retained_heap_mib", float64(ms.HeapAlloc)/(1<<20))
	o.set("peak_rss_mib", vmHWM())
}

func runColRead(cfg config) (*outcome, error) {
	return runSim(cfg, "col-read", colReadInputs, colReadPass)
}

func runRowWrite(cfg config) (*outcome, error) {
	return runSim(cfg, "row-write-4ch", rowWriteInputs, rowWritePass)
}
