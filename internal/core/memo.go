package core

import (
	"context"
	"flag"
	"sort"

	"sam/internal/design"
	"sam/internal/imdb"
	"sam/internal/memo"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
)

// Memo is the pipelines' content-addressed run-result cache: same design
// × options × workload × query × fault-config × seed ⇒ the cached
// QueryResult, behind in-flight singleflight dedup. Thread it through a
// sweep with Par.Memo (every driver honors it); a nil *Memo everywhere
// means "run everything", bit-for-bit the pre-cache behaviour.
//
// Correctness rests on two invariants the repo already pins: runs are
// deterministic and worker-count-invariant (the frozen-scheduler
// differential and the *DeterministicAcrossWorkers tests), and cached
// QueryResults are never mutated by consumers (the drivers only read
// them). The key covers every run input; fixed simulator semantics
// (timing models, scheduler policy, cpu/cache defaults, workload
// generation) are covered by memo.SchemaVersion — see
// TestMemoSaltTripwire.
type Memo struct {
	cache *memo.Cache[*sim.QueryResult]
}

// MemoOptions configures a Memo.
type MemoOptions struct {
	// MaxEntries bounds the in-process tier (0 = memo.DefaultMaxEntries).
	MaxEntries int
	// Dir, when non-empty, adds the persistent disk tier (-cache-dir).
	Dir string
}

// NewMemo builds a run-result cache over the stable sim codec.
func NewMemo(o MemoOptions) *Memo {
	return &Memo{cache: memo.New(memo.Config[*sim.QueryResult]{
		MaxEntries: o.MaxEntries,
		Dir:        o.Dir,
		Encode:     sim.EncodeResult,
		Decode:     sim.DecodeResult,
	})}
}

// RegisterMemoFlags adds -cache-dir and -no-cache to fs and returns the
// function that, once fs is parsed, builds the Memo they describe (nil
// with -no-cache, which runs everything).
func RegisterMemoFlags(fs *flag.FlagSet) func() *Memo {
	dir := fs.String("cache-dir", "", "persist memoized run results in this directory (warm re-runs skip simulation)")
	off := fs.Bool("no-cache", false, "disable run memoization entirely (overrides -cache-dir)")
	return func() *Memo {
		if *off {
			return nil
		}
		return NewMemo(MemoOptions{Dir: *dir})
	}
}

// Counters reads the cache instruments (hits, misses, dedup, bytes, …).
func (m *Memo) Counters() memo.Counters { return m.cache.Counters() }

// StatsSnapshot freezes the memo.* instruments as an internal/stats
// snapshot for -stats-json and -metrics-dir dumps.
func (m *Memo) StatsSnapshot() *stats.Snapshot { return m.cache.StatsSnapshot() }

// RunOne is the cached form of core.RunOne: a hit returns the previously
// computed result, a miss runs the simulation and caches it. Safe for
// concurrent use; concurrent lookups of the same key run one simulation.
// A nil *Memo runs q uncached.
func (m *Memo) RunOne(kind design.Kind, opts design.Options, w Workload, q BenchQuery) (*sim.QueryResult, error) {
	if m == nil {
		return RunOne(kind, opts, w, q)
	}
	r, _, err := m.runBench(kind, opts, w, q, nil)
	return r, err
}

// RunOneObserved is RunOne exposing the cache outcome, so callers feeding
// the telemetry plane can attribute the run (hit/miss/disk-hit/dedup).
func (m *Memo) RunOneObserved(kind design.Kind, opts design.Options, w Workload, q BenchQuery) (*sim.QueryResult, memo.Outcome, error) {
	return m.runBench(kind, opts, w, q, nil)
}

// RunOneFaultedObserved is the cached, outcome-exposing form of
// RunOneFaulted: the fault model is part of the fingerprint (an inactive
// or nil model collides with the fault-free key), so fault campaigns and
// the samd daemon's fault-enabled bench jobs share the cache safely.
func (m *Memo) RunOneFaultedObserved(kind design.Kind, opts design.Options, w Workload, q BenchQuery, fm *sim.FaultModel) (*sim.QueryResult, memo.Outcome, error) {
	return m.runBench(kind, opts, w, q, fm)
}

// runBench caches a benchmark-shaped run (both tables loaded, optional
// fault model) under its canonical fingerprint.
func (m *Memo) runBench(kind design.Kind, opts design.Options, w Workload, q BenchQuery, fm *sim.FaultModel) (*sim.QueryResult, memo.Outcome, error) {
	key := benchRunKey(kind, opts, w, q, prefersColStore(kind, q), fm)
	return m.cache.Do(key, func() (*sim.QueryResult, error) {
		s := BenchSystem(kind, opts, w, q)
		if fm != nil {
			s.Faults = fm
		}
		return RunOn(s, q)
	})
}

// do caches an arbitrary run under a precomputed key (the sweep driver
// builds its own system shape).
func (m *Memo) do(key string, compute func() (*sim.QueryResult, error)) (*sim.QueryResult, memo.Outcome, error) {
	return m.cache.Do(key, compute)
}

// runOne routes a benchmark run through the Par's memo when present,
// annotating the job span (when the sweep is observed) with the cache
// outcome so the event log can attribute hits and misses per job.
func (p Par) runOne(ctx context.Context, kind design.Kind, opts design.Options, w Workload, q BenchQuery) (*sim.QueryResult, error) {
	if p.Memo == nil {
		return RunOne(kind, opts, w, q)
	}
	r, out, err := p.Memo.RunOneObserved(kind, opts, w, q)
	if err == nil {
		runner.Annotate(ctx, "memo", out.String())
	}
	return r, err
}

// annotateMemo tags the observed job span with a cache outcome — the
// shared helper for drivers that call Memo.do directly.
func annotateMemo(ctx context.Context, out memo.Outcome, err error) {
	if err == nil {
		runner.Annotate(ctx, "memo", out.String())
	}
}

// --- canonical fingerprints -------------------------------------------------
//
// The key covers everything that determines a run's outcome, and nothing
// that does not: BenchQuery.Name and IsWrite are presentation metadata
// (the run is fully determined by SQL + params + class), so Fig12 and
// Fig13 evaluating the same (design, query) cell share one simulation.
// design.Options canonicalize through Options.Canon, sql.Params through
// sorted keys, and a nil fault model collides with an inactive one —
// the "semantically identical inputs built two ways" property
// TestMemoKeyCanonicalization pins.

// addDesign fingerprints the resolved design point.
func addDesign(f *memo.Fingerprint, kind design.Kind, opts design.Options) {
	c := opts.Canon(kind)
	f.I64("design.kind", int64(kind)).
		I64("design.gran.bits", int64(c.Gran.BitsPerChip)).
		I64("design.gran.sector", int64(c.Gran.SectorBytes)).
		I64("design.gran.reach", int64(c.Gran.Reach)).
		Bool("design.gran.gang", c.Gran.Gang).
		I64("design.substrate", int64(c.Substrate))
}

// addParams fingerprints query parameters in sorted-key order; nil and
// empty collide (both resolve no parameters).
func addParams(f *memo.Fingerprint, p sql.Params) {
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names)
	f.I64("params.n", int64(len(names)))
	for _, n := range names {
		f.Str("param.name", n).U64("param.value", p[n])
	}
}

// addFault fingerprints the fault configuration. nil and inactive
// configurations collide: the engine treats both as a fault-free run
// (no injectors attached, default retry budget restored).
func addFault(f *memo.Fingerprint, fm *sim.FaultModel) {
	if fm == nil || !fm.Active() {
		f.Bool("fault.active", false)
		return
	}
	f.Bool("fault.active", true).
		U64("fault.seed", fm.Seed).
		F64("fault.rate", fm.Rate).
		I64("fault.retries", int64(fm.MaxRetries))
	// All-zero weights select the documented default mix, and the draw
	// normalizes by the sum — canonicalize both so scaled-equal mixes
	// collide.
	bw, cw, rw := fm.BitWeight, fm.ChipWeight, fm.CorrelatedWeight
	if bw == 0 && cw == 0 && rw == 0 {
		bw, cw, rw = 0.6, 0.2, 0.2
	}
	sum := bw + cw + rw
	f.F64("fault.w.bit", bw/sum).F64("fault.w.chip", cw/sum).F64("fault.w.corr", rw/sum)
	// Persistent maps keep list order: application order is part of the
	// deterministic replay (duplicate stuck-DQ entries are last-wins).
	f.I64("fault.dead.n", int64(len(fm.DeadChips)))
	for _, dc := range fm.DeadChips {
		f.I64("fault.dead.rank", int64(dc.Rank)).I64("fault.dead.chip", int64(dc.Chip))
	}
	f.I64("fault.stuck.n", int64(len(fm.StuckDQs)))
	for _, sd := range fm.StuckDQs {
		f.I64("fault.stuck.rank", int64(sd.Rank)).
			I64("fault.stuck.chip", int64(sd.Chip)).
			I64("fault.stuck.dq", int64(sd.DQ)).
			I64("fault.stuck.value", int64(sd.Value))
	}
}

// benchRunKey fingerprints a benchmark-shaped run: the standard Ta/Tb
// workload pair, one Table 3 query, optional fault injection.
func benchRunKey(kind design.Kind, opts design.Options, w Workload, q BenchQuery, colStore bool, fm *sim.FaultModel) string {
	f := memo.NewFingerprint("bench")
	addDesign(f, kind, opts)
	f.I64("workload.ta", int64(w.TaRecords)).
		I64("workload.tb", int64(w.TbRecords)).
		U64("workload.seed", w.Seed).
		Str("query.sql", q.SQL).
		I64("query.class", int64(q.Class)).
		Bool("colstore", colStore)
	addParams(f, q.Params)
	addFault(f, fm)
	return f.Sum()
}

// sweepRunKey fingerprints a Fig. 15 sweep-point run: a single generated
// table with its own schema and seed, the generated sweep query, and the
// store orientation (which also drives the row-wise FullScan rule).
func sweepRunKey(kind design.Kind, opts design.Options, schema imdb.Schema, tableSeed uint64, query string, params sql.Params, colStore bool) string {
	f := memo.NewFingerprint("sweep")
	addDesign(f, kind, opts)
	f.Str("table.name", schema.Name).
		I64("table.fields", int64(schema.Fields)).
		I64("table.records", int64(schema.Records)).
		U64("table.seed", tableSeed).
		Str("query.sql", query).
		Bool("colstore", colStore)
	addParams(f, params)
	addFault(f, nil)
	return f.Sum()
}
