// Command samsim runs one SQL query from the paper's dialect against a
// chosen memory design and prints the cycle, traffic, and energy report.
//
// Usage:
//
//	samsim -design SAM-en -query "SELECT SUM(f9) FROM Ta WHERE f10 > 2"
//	samsim -design baseline -bench Q3
//	samsim -design RC-NVM-wd -bench Qs2 -ta 4096
//	samsim -design SAM-en -bench Q3 -compare -workers 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"sam/internal/core"
	"sam/internal/design"
	"sam/internal/etrace"
	"sam/internal/fault"
	"sam/internal/mc"
	"sam/internal/obs"
	"sam/internal/prof"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
	"sam/internal/trace"
)

func kindByName(name string) (design.Kind, error) {
	if k, ok := core.KindByName(name); ok {
		return k, nil
	}
	return 0, fmt.Errorf("unknown design %q (try %s)", name, strings.Join(core.KindNames(), ", "))
}

func main() {
	designName := flag.String("design", "SAM-en", "memory design to simulate")
	query := flag.String("query", "", "SQL query text (Table 3 dialect)")
	benchName := flag.String("bench", "", "run a named benchmark query (Q1..Q12, Qs1..Qs6) instead of -query")
	taRecords := flag.Int("ta", 0, "records in Ta (0 = default)")
	tbRecords := flag.Int("tb", 0, "records in Tb (0 = default)")
	compare := flag.Bool("compare", false, "also run the baseline and report speedup")
	workers := flag.Int("workers", 0, "max parallel simulations for -compare (0 = GOMAXPROCS)")
	faultChip := flag.Int("faultchip", -1, "inject a dead chip at this index on every rank (chipkill study)")
	faultRate := flag.Float64("fault-rate", 0, "per-burst transient fault probability (0..1)")
	faultSeed := flag.Uint64("fault-seed", 0, "fault-injection seed (0 = workload seed)")
	faultChips := flag.String("fault-chips", "", "comma-separated dead-chip indices, each as chip or rank:chip (-1 rank = all)")
	faultStuck := flag.String("fault-stuck", "", "comma-separated stuck DQ lines, each as chip:dq:value (value 0 or 1)")
	faultRetries := flag.Int("fault-retries", mc.DefaultConfig().MaxRetries, "read-retry budget before poisoning (0 = poison on first DUE)")
	traceOut := flag.String("trace", "", "dump the memory request trace to this file")
	eventOut := flag.String("trace-out", "", "write a cycle-accurate Chrome/Perfetto trace-event JSON to this file")
	traceCSV := flag.String("trace-csv", "", "write the windowed time-series samples as CSV to this file")
	traceWindow := flag.Int64("trace-window", 2048, "sampling window for the trace time series (bus cycles)")
	traceLimit := flag.Int("trace-limit", etrace.DefaultCapacity, "event-ring capacity; oldest events drop beyond this")
	statsJSON := flag.String("stats-json", "", "write the full run report as JSON to this file ('-' for stdout)")
	cacheDir := flag.String("cache-dir", "", "persist memoized run results in this directory (warm re-runs skip simulation)")
	noCache := flag.Bool("no-cache", false, "disable run memoization entirely (overrides -cache-dir)")
	startProf := prof.RegisterFlags(flag.CommandLine)
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// fail closes the (idempotent, nil-safe) plane first: os.Exit skips
	// the deferred Close, and an aborted run should still summarize its
	// event log.
	var plane *obs.Plane
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "samsim:", err)
		_ = plane.Close()
		os.Exit(1)
	}

	stopProf, err := startProf()
	if err != nil {
		fail(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	kind, err := kindByName(*designName)
	if err != nil {
		fail(err)
	}
	w := core.DefaultWorkload()
	if *taRecords > 0 {
		w.TaRecords = *taRecords
	}
	if *tbRecords > 0 {
		w.TbRecords = *tbRecords
	}

	var bench core.BenchQuery
	switch {
	case *benchName != "":
		found := false
		for _, q := range core.Benchmark() {
			if q.Name == *benchName {
				bench, found = q, true
				break
			}
		}
		if !found {
			fail(fmt.Errorf("unknown benchmark query %q", *benchName))
		}
	case *query != "":
		bench = core.BenchQuery{Name: "adhoc", SQL: *query, Params: sql.Params{}}
	default:
		fail(fmt.Errorf("provide -query or -bench"))
	}

	faults, err := buildFaultModel(*faultChip, *faultRate, *faultSeed, *faultChips, *faultStuck, *faultRetries, w.Seed)
	if err != nil {
		fail(err)
	}

	// Runs without attached extras route through the memo cache; with
	// -cache-dir a repeat of the same (design, workload, query) replays
	// from disk instead of simulating. Runs with extras attached (fault
	// models, tracers) always execute for real.
	var cache *core.Memo
	if !*noCache {
		cache = core.NewMemo(core.MemoOptions{Dir: *cacheDir})
	}
	runOne := func(k design.Kind, q core.BenchQuery) (*sim.QueryResult, error) {
		if cache == nil {
			return core.RunOne(k, design.Options{}, w, q)
		}
		return cache.RunOne(k, design.Options{}, w, q)
	}

	plane, err = obsFlags.Start(os.Stderr)
	if err != nil {
		fail(err)
	}
	if cache != nil {
		plane.AddSource(cache.StatsSnapshot)
	}
	defer func() {
		if err := plane.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "samsim: obs:", err)
		}
	}()

	ex := extras{
		faults: faults, traceOut: *traceOut, eventOut: *eventOut, traceCSV: *traceCSV,
		traceWindow: *traceWindow, traceLimit: *traceLimit,
	}
	var res, base *sim.QueryResult
	if ex.attached() {
		finish := plane.Single("run")
		res, err = runWithExtras(kind, w, bench, ex, os.Stdout)
		finish(err)
		if err != nil {
			fail(err)
		}
	} else if *compare && kind != design.Baseline {
		// The design and its baseline are independent runs; fan them out
		// on the worker pool.
		runs, rerr := runner.Map(ctx, []design.Kind{kind, design.Baseline},
			runner.Options{Workers: *workers, Observer: plane.Hooks("compare")},
			func(_ context.Context, _ int, k design.Kind) (*sim.QueryResult, error) {
				r, err := runOne(k, bench)
				if err != nil {
					return nil, fmt.Errorf("%v: %w", k, err)
				}
				return r, nil
			})
		if rerr != nil {
			fail(rerr)
		}
		res, base = runs[0], runs[1]
	} else {
		finish := plane.Single("run")
		res, err = runOne(kind, bench)
		finish(err)
		if err != nil {
			fail(err)
		}
	}
	report(kind.String(), bench, res)
	if *compare && kind != design.Baseline {
		if base == nil { // fault/trace path: baseline still to run
			base, err = runOne(design.Baseline, bench)
			if err != nil {
				fail(err)
			}
		}
		fmt.Printf("\nspeedup vs baseline: %.2fx (baseline %d cycles)\n",
			sim.Speedup(base.Stats, res.Stats), base.Stats.Cycles)
	}
	var memoSnap *stats.Snapshot
	if cache != nil {
		if ct := cache.Counters(); ct.Lookups() > 0 {
			memoSnap = cache.StatsSnapshot()
			fmt.Fprintf(os.Stderr, "samsim: memo: %v\n", ct)
		}
	}
	if *statsJSON != "" {
		if err := writeStatsJSON(*statsJSON, kind.String(), bench, res, memoSnap); err != nil {
			fail(err)
		}
	}
}

// extras are the run attachments that need a system built by hand: a
// fault model and the request, event and time-series tracers.
type extras struct {
	faults                       *sim.FaultModel
	traceOut, eventOut, traceCSV string
	traceWindow                  int64
	traceLimit                   int
}

// attached reports whether any extra is set.
func (x extras) attached() bool {
	return x.faults != nil || x.traceOut != "" || x.eventOut != "" || x.traceCSV != ""
}

// runWithExtras runs q on the system core.RunOne would build, with the
// extras attached, writes the requested trace files, and reports each
// file on out. Tracers only observe, so a traced run's result equals the
// plain run's.
func runWithExtras(kind design.Kind, w core.Workload, q core.BenchQuery, x extras, out io.Writer) (*sim.QueryResult, error) {
	s := core.BenchSystem(kind, design.Options{}, w, q)
	s.Faults = x.faults
	if x.traceOut != "" {
		s.TraceSink = &trace.Trace{}
	}
	var buf *etrace.Buffer
	var sp *etrace.Sampler
	if x.eventOut != "" || x.traceCSV != "" {
		buf = etrace.NewBuffer(x.traceLimit)
		buf.Name = kind.String()
		sp = etrace.NewSampler(x.traceWindow)
		sp.Name = kind.String()
		s.AttachEventTrace(buf, sp)
	}
	res, err := core.RunOn(s, q)
	if err != nil {
		return nil, err
	}
	if x.traceOut != "" {
		if err := writeFile(x.traceOut, s.TraceSink.Write); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace         %d requests -> %s\n", s.TraceSink.Len(), x.traceOut)
	}
	if x.eventOut != "" {
		err := writeFile(x.eventOut, func(w io.Writer) error {
			return etrace.WriteChrome(w, []*etrace.Buffer{buf}, []*etrace.Sampler{sp})
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "event trace   %d events (%d dropped), %d samples -> %s\n",
			buf.Len(), buf.Dropped(), len(sp.Samples), x.eventOut)
	}
	if x.traceCSV != "" {
		err := writeFile(x.traceCSV, func(w io.Writer) error { return etrace.WriteCSV(w, sp) })
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace csv     %d samples (window %d cycles) -> %s\n",
			len(sp.Samples), sp.Window, x.traceCSV)
	}
	return res, nil
}

// buildFaultModel assembles the run's fault configuration from the -fault-*
// flags (nil when no fault option is set). The legacy -faultchip maps to a
// dead chip on every rank.
func buildFaultModel(legacyChip int, rate float64, seed uint64, chips, stuck string, retries int, wseed uint64) (*sim.FaultModel, error) {
	cfg := &sim.FaultModel{Seed: seed, Rate: rate, MaxRetries: retries}
	if cfg.Seed == 0 {
		cfg.Seed = wseed
	}
	if legacyChip >= 0 {
		cfg.DeadChips = append(cfg.DeadChips, fault.ChipFault{Rank: -1, Chip: legacyChip})
	}
	if chips != "" {
		for _, tok := range strings.Split(chips, ",") {
			parts := strings.Split(strings.TrimSpace(tok), ":")
			var err error
			cf := fault.ChipFault{Rank: -1}
			switch len(parts) {
			case 1:
				cf.Chip, err = strconv.Atoi(parts[0])
			case 2:
				if cf.Rank, err = strconv.Atoi(parts[0]); err == nil {
					cf.Chip, err = strconv.Atoi(parts[1])
				}
			default:
				err = fmt.Errorf("want chip or rank:chip")
			}
			if err != nil {
				return nil, fmt.Errorf("-fault-chips %q: %v", tok, err)
			}
			cfg.DeadChips = append(cfg.DeadChips, cf)
		}
	}
	if stuck != "" {
		for _, tok := range strings.Split(stuck, ",") {
			parts := strings.Split(strings.TrimSpace(tok), ":")
			if len(parts) != 3 {
				return nil, fmt.Errorf("-fault-stuck %q: want chip:dq:value", tok)
			}
			var sd fault.StuckDQ
			sd.Rank = -1
			var err error
			if sd.Chip, err = strconv.Atoi(parts[0]); err == nil {
				if sd.DQ, err = strconv.Atoi(parts[1]); err == nil {
					var v int
					v, err = strconv.Atoi(parts[2])
					sd.Value = byte(v)
				}
			}
			if err != nil {
				return nil, fmt.Errorf("-fault-stuck %q: %v", tok, err)
			}
			cfg.StuckDQs = append(cfg.StuckDQs, sd)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Active() {
		return nil, nil
	}
	return cfg, nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsReport is the machine-readable form of the run: functional results
// plus the full sim.RunStats, including the per-class latency/occupancy
// histogram snapshot (Stats.Metrics) and per-bank accounting
// (Stats.Device.PerBank, Stats.BankActPreNJ).
type statsReport struct {
	Design     string
	Query      string
	SQL        string
	Rows       int
	Aggregates []float64
	Stats      sim.RunStats
	// Memo is the run's cache instrument snapshot (memo.hits,
	// memo.misses, memo.inflight_dedup counters and the memo.bytes
	// gauge); absent when memoization is disabled or unused.
	Memo *stats.Snapshot `json:",omitempty"`
}

func writeStatsJSON(path, designName string, q core.BenchQuery, r *sim.QueryResult, memoSnap *stats.Snapshot) error {
	out := statsReport{
		Design:     designName,
		Query:      q.Name,
		SQL:        q.SQL,
		Rows:       r.Rows,
		Aggregates: r.Aggregates,
		Stats:      r.Stats,
		Memo:       memoSnap,
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(path, enc, 0o644)
}

func report(designName string, q core.BenchQuery, r *sim.QueryResult) {
	st := r.Stats
	fmt.Printf("design        %s\n", designName)
	fmt.Printf("query         %s: %s\n", q.Name, q.SQL)
	fmt.Printf("rows          %d\n", r.Rows)
	for i, agg := range r.Aggregates {
		fmt.Printf("aggregate[%d]  %.6g\n", i, agg)
	}
	fmt.Printf("cycles        %d (%.3f ms at 1200 MHz bus)\n", st.Cycles, st.Seconds(1200)*1e3)
	fmt.Printf("mem requests  %d (row-hit rate %.1f%%)\n", st.MemRequests, st.RowHitRate*100)
	fmt.Printf("device        ACT=%d RD=%d WR=%d sRD=%d sWR=%d REF=%d modeSwitch=%d\n",
		st.Device.Acts, st.Device.Reads, st.Device.Writes,
		st.Device.StrideReads, st.Device.StrideWrites, st.Device.Refs, st.Device.ModeSwitches)
	fmt.Printf("energy        %.2f uJ (bg %.1f%%, act %.1f%%, rd/wr %.1f%%, ref %.1f%%)\n",
		st.Energy.Total()/1e3,
		pct(st.Energy.Background, st.Energy.Total()),
		pct(st.Energy.ActPre, st.Energy.Total()),
		pct(st.Energy.RdWr, st.Energy.Total()),
		pct(st.Energy.Refresh, st.Energy.Total()))
	fmt.Printf("avg power     %.0f mW\n", st.PowerMW.Total())
	if rel := st.Reliability; rel != nil {
		fmt.Printf("fault model   %d bursts probed, %d injected, %d corrected (%d symbols), %d DUE, %d silent\n",
			rel.Bursts, rel.Injected, rel.CorrectedBursts, rel.CorrectedSymbols,
			rel.DUEs, rel.SilentCorruptions)
		fmt.Printf("reliability   %d retries, %d poisoned lines\n",
			st.Controller.Retries, st.Controller.Poisoned)
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}
