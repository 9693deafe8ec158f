package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"sam/internal/cache"
	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/dram"
	"sam/internal/fault"
	"sam/internal/imdb"
	"sam/internal/mc"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/trace"
)

// The traced run times the nested layers from outside: it runs each cell
// through core's public pieces (sql.Parse/Compile, System.RunPlan) with the
// request stream captured by System.TraceSink, then replays the cell's
// real inputs through each layer's public functions on fresh instances:
//
//   - placer: the Placer.ReadField/ReadRecord/... calls the compiled plan
//     implies, in the executor's order;
//   - cache:  the same calls with each Txn fed through a cache.Hierarchy
//     sized like sim.DefaultCaches (cache time = that replay minus the
//     placer-only one);
//   - mc:     the captured requests, split per channel with
//     mc.AddrMap.Channel, through trace.Replay on a fresh
//     mc.Controller/dram.Device — once without and, for faulted cells,
//     once with the cell's fault.Injector as Device.Probe.
//
// A replay that does not reproduce the real run (cache statistics differ,
// or the mc completions differ from RunStats.MemRequests) leaves that
// layer unresolved for the cell: its time is excluded, never guessed.

// cellTrace is one traced cell.
type cellTrace struct {
	Cell    simCell
	Result  *sim.QueryResult
	Levels  []cache.Stats // the real run's hierarchy statistics
	Compile time.Duration
	Run     time.Duration

	Placer, PlacerCache time.Duration
	Txns, GroupTxns     uint64
	CacheOK             bool

	MC, MCFault time.Duration
	Completions uint64
	MCOK        bool
	Faulted     bool
}

// opKind is one placer entry point.
type opKind uint8

const (
	opReadField opKind = iota
	opWriteField
	opReadRecord
	opWriteRecord
)

// placerOp is one placer call of a cell, in executor order.
type placerOp struct {
	kind  opKind
	table uint8 // 0 = Ta (slot 0), 1 = Tb (slot 1)
	field int16
	rec   int32
}

// scanBatch mirrors the executor's vectorised batch (sim's scanBatch).
const scanBatch = 256

// planOps lists the placer calls the executor makes for plan on fresh
// tables of w, mutating the tables exactly as the run does.
func planOps(p *sql.Plan, w core.Workload) ([]placerOp, error) {
	tables := []*imdb.Table{
		imdb.NewTable(imdb.Ta(w.TaRecords), w.Seed),
		imdb.NewTable(imdb.Tb(w.TbRecords), w.Seed+1),
	}
	idx := func(name string) (uint8, error) {
		for i, t := range tables {
			if t.Schema.Name == name {
				return uint8(i), nil
			}
		}
		return 0, fmt.Errorf("unknown table %q", name)
	}
	var ops []placerOp
	emit := func(k opKind, tb uint8, rec, field int) {
		ops = append(ops, placerOp{kind: k, table: tb, rec: int32(rec), field: int16(field)})
	}
	ti, err := idx(p.Table)
	if err != nil {
		return nil, err
	}
	t := tables[ti]
	switch p.Kind {
	case sql.PlanScan, sql.PlanAggregate, sql.PlanUpdate:
		limit := p.Limit
		if limit < 0 {
			limit = t.Records()
		}
		taken := 0
		var matches []int
		for start := 0; start < t.Records() && taken < limit; start += scanBatch {
			end := min(start+scanBatch, t.Records())
			stop := end
			if p.FullScan {
				if rem := limit - taken; len(p.Preds) == 0 && start+rem < stop {
					stop = start + rem
				}
				for rec := start; rec < stop; rec++ {
					emit(opReadRecord, ti, rec, 0)
				}
			} else {
				for _, f := range p.PredFields {
					for rec := start; rec < end; rec++ {
						emit(opReadField, ti, rec, f)
					}
				}
			}
			matches = matches[:0]
			for rec := start; rec < stop && taken < limit; rec++ {
				if p.Match(func(f int) uint64 { return t.Value(rec, f) }) {
					matches = append(matches, rec)
					taken++
				}
			}
			switch {
			case p.Kind == sql.PlanUpdate:
				for _, set := range p.Sets {
					for _, rec := range matches {
						emit(opWriteField, ti, rec, set.Field)
						t.SetValue(rec, set.Field, set.Value)
					}
				}
			case p.WholeRecord:
				if !p.FullScan {
					for _, rec := range matches {
						emit(opReadRecord, ti, rec, 0)
					}
				}
			default:
				for _, f := range p.ProjFields {
					for _, rec := range matches {
						emit(opReadField, ti, rec, f)
					}
				}
			}
		}
	case sql.PlanInsert:
		row := make([]uint64, t.Fields())
		copy(row, p.InsertValues)
		for i := 0; i < sim.InsertCount; i++ {
			row[0] = p.InsertValues[0] + uint64(i)
			emit(opWriteRecord, ti, t.Append(row), 0)
		}
	case sql.PlanJoin:
		ii, err := idx(p.InnerTable)
		if err != nil {
			return nil, err
		}
		for _, side := range []struct {
			tb     uint8
			fields []int
		}{{ii, dedupFields(p.InnerPredFields, p.InnerProj)}, {ti, dedupFields(p.OuterPredFields, p.OuterProj)}} {
			n := tables[side.tb].Records()
			for start := 0; start < n; start += scanBatch {
				end := min(start+scanBatch, n)
				for _, f := range side.fields {
					for rec := start; rec < end; rec++ {
						emit(opReadField, side.tb, rec, f)
					}
				}
			}
		}
	default:
		return nil, fmt.Errorf("plan kind %v not replayable", p.Kind)
	}
	return ops, nil
}

// dedupFields concatenates field lists keeping first occurrences, like the
// executor's join column sets.
func dedupFields(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, f := range append(append([]int{}, a...), b...) {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// placers builds fresh placers for the cell's tables, slots in the order
// the system registered them.
func placers(d *design.Design, w core.Workload) [2]*design.Placer {
	return [2]*design.Placer{
		design.NewPlacer(d, imdb.Ta(w.TaRecords), 0, false),
		design.NewPlacer(d, imdb.Tb(w.TbRecords), 1, false),
	}
}

// call invokes one placer entry point; fn receives each resulting Txn
// before the next placer call (Txn groups point at placer scratch).
func (op placerOp) call(pl [2]*design.Placer, fn func(design.Txn)) {
	p := pl[op.table]
	switch op.kind {
	case opReadField:
		fn(p.ReadField(int(op.rec), int(op.field)))
	case opWriteField:
		fn(p.WriteField(int(op.rec), int(op.field)))
	case opReadRecord:
		for _, t := range p.ReadRecord(int(op.rec)) {
			fn(t)
		}
	case opWriteRecord:
		for _, t := range p.WriteRecord(int(op.rec)) {
			fn(t)
		}
	}
}

// newHierarchy builds an empty hierarchy sized like the system's.
func newHierarchy(s *sim.System) *cache.Hierarchy {
	d := s.Design
	sectors, lb := d.SectorsPerLine(), d.Mem.Geometry.LineBytes
	c := s.Caches
	return cache.NewHierarchy(
		cache.New(cache.Config{Name: "L1", SizeBytes: c.L1Bytes, LineBytes: lb, Ways: c.Ways, Sectors: sectors, HitLatency: 4}),
		cache.New(cache.Config{Name: "L2", SizeBytes: c.L2Bytes, LineBytes: lb, Ways: c.Ways, Sectors: sectors, HitLatency: 12}),
		cache.New(cache.Config{Name: "LLC", SizeBytes: c.LLCBytes, LineBytes: lb, Ways: c.Ways, Sectors: sectors, HitLatency: 38}),
	)
}

func levelStats(h *cache.Hierarchy) []cache.Stats {
	out := make([]cache.Stats, h.Levels())
	for i := range out {
		out[i] = h.Level(i).Stats
	}
	return out
}

// channelFaultSeed mirrors the engine's per-channel fault-stream seed
// derivation, so the replayed injector draws the run's fault stream.
func channelFaultSeed(seed uint64, ch int) uint64 {
	return seed ^ (uint64(ch+1) * 0x9e3779b97f4a7c15)
}

// replayMC replays the captured requests per channel on fresh
// controllers/devices (with the cell's fault injector when fm is set) and
// returns the total completions and the host time of the replays.
func replayMC(d *design.Design, tr *trace.Trace, fm *sim.FaultModel) (uint64, time.Duration, error) {
	nch := d.Mem.Geometry.Channels
	per := make([]*trace.Trace, nch)
	for i := range per {
		per[i] = &trace.Trace{}
	}
	amap := mc.NewAddrMap(d.Mem.Geometry)
	for _, r := range tr.Records {
		ch := 0
		if nch > 1 {
			ch = amap.Channel(r.Addr)
		}
		per[ch].Add(r)
	}
	var n uint64
	var spent time.Duration
	for ch, t := range per {
		dev := dram.NewDevice(d.Mem)
		ctl := mc.NewController(dev, mc.DefaultConfig())
		if fm != nil {
			cfg := *fm
			cfg.Seed = channelFaultSeed(fm.Seed, ch)
			ctl.SetMaxRetries(fm.MaxRetries)
			dev.Probe = fault.New(cfg, d.BurstScheme(), d.HasECC)
		}
		t0 := time.Now()
		comps, err := trace.Replay(t, ctl)
		spent += time.Since(t0)
		if err != nil {
			return n, spent, fmt.Errorf("channel %d: %w", ch, err)
		}
		n += uint64(len(comps))
	}
	return n, spent, nil
}

// traceCell runs one cell through the public layer calls, timing each
// under the tracer, then replays its inputs layer by layer.
func traceCell(w core.Workload, c simCell, fm *sim.FaultModel, tr *tracer, group uint64) (*cellTrace, error) {
	tc0 := time.Now()
	defer func() { tr.add("cell", group, "", tc0, time.Now()) }()
	s := newSystem(w, c, fm)
	s.TraceSink = &trace.Trace{}
	ct := &cellTrace{Cell: c, Faulted: fm != nil && fm.Active()}

	t0 := time.Now()
	stmt, err := sql.Parse(c.Query.SQL)
	if err != nil {
		return nil, err
	}
	plan, err := sql.Compile(stmt, c.Query.Params)
	if err != nil {
		return nil, err
	}
	plan.FullScan = c.Query.Class == core.ClassQs && plan.WholeRecord
	ct.Compile = time.Since(t0)
	tr.add("sql.compile", group, "cell", t0, t0.Add(ct.Compile))

	t0 = time.Now()
	res, err := s.RunPlan(plan)
	ct.Run = time.Since(t0)
	tr.add("sim.run", group, "cell", t0, t0.Add(ct.Run))
	if err != nil {
		return nil, err
	}
	ct.Result = res
	ct.Levels = levelStats(s.Hierarchy)

	// The op list is built from a freshly compiled plan: the executor
	// mutates tables, never plans, but a fresh one keeps the replay
	// independent of the run it checks.
	replayPlan, err := sql.Compile(stmt, c.Query.Params)
	if err != nil {
		return nil, err
	}
	replayPlan.FullScan = plan.FullScan
	ops, err := planOps(replayPlan, w)
	if err != nil {
		return nil, err
	}

	pl := placers(s.Design, w)
	t0 = time.Now()
	for _, op := range ops {
		op.call(pl, func(t design.Txn) {
			ct.Txns++
			if t.Group != nil {
				ct.GroupTxns++
			}
		})
	}
	ct.Placer = time.Since(t0)
	tr.add("replay.placer", group, "cell", t0, t0.Add(ct.Placer))

	pl = placers(s.Design, w)
	h := newHierarchy(s)
	t0 = time.Now()
	for _, op := range ops {
		op.call(pl, func(t design.Txn) {
			res := h.Access(t.Addr, t.Size, t.Write, t.Sectored)
			if res.HitLevel > 0 || t.Group == nil {
				return
			}
			for _, f := range t.Group.Fills {
				h.FillLine(f.LineAddr, f.Sectors, true)
			}
		})
	}
	h.FlushDirty()
	ct.PlacerCache = time.Since(t0)
	tr.add("replay.placer+cache", group, "cell", t0, t0.Add(ct.PlacerCache))
	ct.CacheOK = equalStats(levelStats(h), ct.Levels)

	t0 = time.Now()
	n, spent, err := replayMC(s.Design, s.TraceSink, nil)
	tr.add("replay.mc", group, "cell", t0, time.Now())
	ct.MC, ct.Completions = spent, n
	ct.MCOK = err == nil && n == res.Stats.MemRequests
	if ct.Faulted && ct.MCOK {
		t0 = time.Now()
		n, spent, err = replayMC(s.Design, s.TraceSink, fm)
		tr.add("replay.mc+fault", group, "cell", t0, time.Now())
		ct.MCFault = spent
		ct.MCOK = err == nil && n == res.Stats.MemRequests
	}
	return ct, nil
}

func equalStats(a, b []cache.Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// layerMetrics aggregates traced cells into the per-layer metrics. Layer
// times cover only cells whose replays all resolved; counts are exact
// from the real runs' public statistics.
func layerMetrics(cells []*cellTrace, o *outcome) {
	var runNS, resolvedRun, placer, cacheT, mcT, faultT, compile float64
	var reqs, cycles, txns, groups uint64
	var lv [3]cache.Stats
	var ctl mc.Stats
	var dev dram.DeviceStats
	var busDen float64
	var unresolved int
	for _, c := range cells {
		st := c.Result.Stats
		runNS += float64(c.Run)
		compile += float64(c.Compile)
		reqs += st.MemRequests
		cycles += uint64(st.Cycles)
		txns += c.Txns
		groups += c.GroupTxns
		for i := range c.Levels {
			if i < len(lv) {
				addCacheStats(&lv[i], c.Levels[i])
			}
		}
		ctl.Add(st.Controller)
		dev.Add(st.Device)
		busDen += float64(st.Cycles) * float64(c.Cell.Channels)
		if !c.CacheOK {
			unresolved++
			o.note("cell %v: cache replay diverged from the run; placer/cache time unresolved", c.Cell)
		}
		if !c.MCOK {
			unresolved++
			o.note("cell %v: mc replay completed %d of %d requests; mc time unresolved", c.Cell, c.Completions, st.MemRequests)
		}
		if !c.CacheOK || !c.MCOK {
			continue
		}
		resolvedRun += float64(c.Run)
		placer += float64(c.Placer)
		cacheT += float64(c.PlacerCache - c.Placer)
		mcT += float64(c.MC)
		if c.Faulted {
			faultT += float64(c.MCFault - c.MC)
		}
	}
	if faultT < 0 {
		unresolved++
		o.note("fault.ms came out negative (%.3f ms): probe cost below replay noise; unresolved", faultT/1e6)
		faultT = 0
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	o.set("sql.compile_us", ratio(compile, float64(len(cells)))/1e3)
	o.set("sim.run_ms", ms(runNS))
	self := resolvedRun - placer - cacheT - mcT
	o.set("sim.self_ms", ms(self))
	o.set("sim.self_share", ratio(self, resolvedRun))
	o.set("sim.ns_per_req", ratio(runNS, float64(reqs)))
	o.set("sim.mem_requests", float64(reqs))
	o.set("sim.cycles", float64(cycles))
	o.set("placer.ms", ms(placer))
	o.set("placer.share", ratio(placer, resolvedRun))
	o.set("placer.txns", float64(txns))
	o.set("placer.group_txns", float64(groups))
	o.set("cache.ms", ms(cacheT))
	o.set("cache.share", ratio(cacheT, resolvedRun))
	o.set("cache.l1_hit_ratio", ratio(float64(lv[0].Hits), float64(lv[0].Hits+lv[0].Misses)))
	var sh, sm, fills, strided, dirty float64
	for _, l := range lv {
		sh += float64(l.SectorHits)
		sm += float64(l.SectorMisses)
		fills += float64(l.FillsFromBelow)
		strided += float64(l.StridedLineInserts)
		dirty += float64(l.DirtyEvictions)
	}
	o.set("cache.sector_hit_ratio", ratio(sh, sh+sm))
	o.set("cache.llc_miss_ratio", ratio(float64(lv[2].Misses), float64(lv[2].Hits+lv[2].Misses)))
	o.set("cache.fills", fills)
	o.set("cache.strided_inserts", strided)
	o.set("cache.dirty_evictions", dirty)
	o.set("mc.ms", ms(mcT))
	o.set("mc.share", ratio(mcT, resolvedRun))
	o.set("mc.row_hit_ratio", ratio(float64(ctl.RowHits), float64(ctl.RowHits+ctl.RowMisses+ctl.RowEmpties)))
	o.set("mc.write_drains", float64(ctl.WriteDrains))
	o.set("mc.max_queue", float64(ctl.MaxQueueOccupancy))
	o.set("mc.read_latency_cycles", ratio(float64(ctl.TotalReadLatency), float64(ctl.Reads)))
	o.set("mc.retries", float64(ctl.Retries))
	o.set("dram.acts", float64(dev.Acts))
	o.set("dram.mode_switches", float64(dev.ModeSwitches))
	o.set("dram.words_useful_ratio", ratio(float64(dev.ColumnWordsRequested), float64(dev.ColumnWordsFetched)))
	o.set("dram.bus_busy_frac", ratio(float64(dev.BusBusyCycles), busDen))
	o.set("fault.ms", ms(faultT))
	o.set("replay.unresolved", float64(unresolved))
}

func addCacheStats(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.SectorHits += s.SectorHits
	dst.SectorMisses += s.SectorMisses
	dst.Evictions += s.Evictions
	dst.DirtyEvictions += s.DirtyEvictions
	dst.FillsFromBelow += s.FillsFromBelow
	dst.WritebacksToBelow += s.WritebacksToBelow
	dst.StridedLineInserts += s.StridedLineInserts
}

// runtimeDelta reports the Go runtime's allocation and GC activity over fn.
func runtimeDelta(o *outcome, fn func()) {
	var a, b runtimeStats
	a.read()
	fn()
	b.read()
	o.set("go.alloc_mib", float64(b.alloc-a.alloc)/(1<<20))
	o.set("go.gc_count", float64(b.gcs-a.gcs))
}

// tracedSim is the simulator workloads' traced run: an untraced pass (the
// reference for the tracing overhead and the source of the cell-time and
// runtime metrics), then a traced pass over the same cells on the same
// worker count, whose results must equal the untraced pass's.
func tracedSim(cfg config, name string, in *simInputs, pass simPassFunc, golden []string, o *outcome) error {
	ctx := context.Background()
	var ref *passOut
	var errs []error
	runtimeDelta(o, func() { ref, errs = pass(ctx, in, cfg.Workers) })
	for _, err := range errs {
		o.note("FAIL: %v", err)
	}
	o.Attempted += len(in.Cells)
	want := digestGate(in.Cells, ref.Results, golden, o)
	var busy float64
	for _, d := range ref.CellMS {
		busy += d
	}
	o.set("core.cell_ms.p50", quantile(ref.CellMS, 0.5))
	o.set("core.cell_ms.p90", quantile(ref.CellMS, 0.9))
	o.set("runner.busy_frac", busy/(float64(ref.Wall)/1e6*float64(min(cfg.Workers, len(in.Cells)))))

	tr := newTracer()
	start := time.Now()
	cells, err := runner.Map(ctx, in.Cells, runner.Options{Workers: cfg.Workers},
		func(_ context.Context, i int, c simCell) (*cellTrace, error) {
			return traceCell(in.W, c, nil, tr, uint64(i))
		})
	wall := time.Since(start)
	if err != nil {
		return err
	}
	o.set("trace.overhead_frac", wall.Seconds()/ref.Wall.Seconds()-1)
	o.Attempted += len(cells)
	results := make([]*sim.QueryResult, len(cells))
	for i, c := range cells {
		results[i] = c.Result
	}
	digestGate(in.Cells, results, want, o)
	layerMetrics(cells, o)

	if in.Cells[0].Channels > 1 {
		// The sharded engine engages here (channels > 1, GOMAXPROCS > 1):
		// repeat each cell on the serial engine, under the same worker pool
		// and with the same request capture, and compare.
		serialRuns, err := runner.Map(ctx, in.Cells, runner.Options{Workers: cfg.Workers},
			func(_ context.Context, i int, c simCell) (time.Duration, error) {
				s := newSystem(in.W, c, nil)
				s.ShardWorkers = 1
				s.TraceSink = &trace.Trace{}
				t0 := time.Now()
				r, err := core.RunOn(s, c.Query)
				d := time.Since(t0)
				tr.add("sim.run.serial", uint64(i), "", t0, t0.Add(d))
				if err != nil {
					return 0, err
				}
				if dg, err := cellDigest(r); err != nil || dg != want[i] {
					return 0, fmt.Errorf("differs from the sharded run")
				}
				return d, nil
			})
		o.Attempted += len(in.Cells)
		if err != nil {
			o.note("serial repeat: %v", err)
		}
		for i, d := range serialRuns {
			if d == 0 {
				o.fail(1, "%v: serial-engine repeat failed or differs from the sharded run", in.Cells[i])
			}
		}
		var serial, sharded time.Duration
		for i, d := range serialRuns {
			serial += d
			sharded += cells[i].Run
		}
		o.set("sim.serial_over_sharded", serial.Seconds()/sharded.Seconds())
	}
	noteSelfTimes(tr, o)
	o.Meta["spans"] = cfg.SpansPath
	return tr.write(cfg.SpansPath)
}

// noteSelfTimes adds the span self-time table to the stderr report.
func noteSelfTimes(tr *tracer, o *outcome) {
	st := tr.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o.note("span %-20s self %10.1f ms", n, float64(st[n])/1e6)
	}
}
