// Command samsim runs one SQL query from the paper's dialect against a
// chosen memory design and prints the cycle, traffic, and energy report.
//
// Usage:
//
//	samsim -design SAM-en -query "SELECT SUM(f9) FROM Ta WHERE f10 > 2"
//	samsim -design baseline -bench Q3
//	samsim -design RC-NVM-wd -bench Qs2 -ta 4096
//	samsim -design SAM-en -bench Q3 -compare -workers 2
//	samsim -design SAM-en -bench Q3 -compare -trace-out duel.json
package main

import (
	"context"
	"errors"
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
	"sam/internal/outfile"
	"sam/internal/prof"
	"sam/internal/runner"
	"sam/internal/sim"
	"sam/internal/sql"
	"sam/internal/stats"
	"sam/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "samsim:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (exiting 2 on a bad flag, 0 on
// -h), runs the query and writes the report to stdout. The profiles and
// the observability plane are closed on every return path.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("samsim", flag.ExitOnError)
	designName := fs.String("design", "SAM-en", "memory design to simulate")
	query := fs.String("query", "", "SQL query text (Table 3 dialect)")
	benchName := fs.String("bench", "", "run a named benchmark query (Q1..Q12, Qs1..Qs6) instead of -query")
	taRecords := fs.Int("ta", 0, "records in Ta (0 = default)")
	tbRecords := fs.Int("tb", 0, "records in Tb (0 = default)")
	compare := fs.Bool("compare", false, "also run the baseline and report speedup (with -trace-out, trace it ahead of the design)")
	workers := fs.Int("workers", 0, "max parallel simulations for -compare (0 = GOMAXPROCS)")
	faultChip := fs.Int("faultchip", -1, "inject a dead chip at this index on every rank (chipkill study)")
	faultRate := fs.Float64("fault-rate", 0, "per-burst transient fault probability (0..1)")
	faultSeed := fs.Uint64("fault-seed", 0, "fault-injection seed (0 = workload seed)")
	faultChips := fs.String("fault-chips", "", "comma-separated dead-chip indices, each as chip or rank:chip (-1 rank = all)")
	faultStuck := fs.String("fault-stuck", "", "comma-separated stuck DQ lines, each as chip:dq:value (value 0 or 1)")
	faultRetries := fs.Int("fault-retries", mc.DefaultConfig().MaxRetries, "read-retry budget before poisoning (0 = poison on first DUE)")
	traceOut := fs.String("trace", "", "dump the memory request trace to this file")
	events := etrace.RegisterFlags(fs)
	statsJSON := fs.String("stats-json", "", "write the full run report as JSON to this file ('-' for stdout)")
	newMemo := core.RegisterMemoFlags(fs)
	startProf := prof.RegisterFlags(fs)
	obsFlags := obs.RegisterFlags(fs)
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	kind, ok := core.KindByName(*designName)
	if !ok {
		return fmt.Errorf("unknown design %q (try %s)", *designName, strings.Join(core.KindNames(), ", "))
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
		if bench, ok = core.BenchQueryByName(*benchName); !ok {
			return fmt.Errorf("unknown benchmark query %q", *benchName)
		}
	case *query != "":
		bench = core.BenchQuery{Name: "adhoc", SQL: *query, Params: sql.Params{}}
	default:
		return fmt.Errorf("provide -query or -bench")
	}

	faults, err := buildFaultModel(*faultChip, *faultRate, *faultSeed, *faultChips, *faultStuck, *faultRetries, w.Seed)
	if err != nil {
		return err
	}

	// Runs without attached extras route through the memo cache (nil with
	// -no-cache); with -cache-dir a repeat of the same (design, workload,
	// query) replays from disk instead of simulating. Runs with extras
	// attached (fault models, tracers) always execute for real.
	cache := newMemo()

	plane, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	if cache != nil {
		plane.AddSource(cache.StatsSnapshot)
	}
	defer func() { err = errors.Join(err, plane.Close()) }()

	compared := *compare && kind != design.Baseline
	ex := extras{faults: faults, traceOut: *traceOut, events: *events}
	var res, base *sim.QueryResult
	if ex.attached() {
		finish := plane.Single("run")
		if compared && ex.events.Out != "" {
			base, err = traceBaseline(w, bench, &ex)
		}
		if err == nil {
			res, err = runWithExtras(kind, w, bench, ex, stdout)
		}
		finish(err)
		if err != nil {
			return err
		}
	} else if compared {
		// The design and its baseline are independent runs; fan them out
		// on the worker pool.
		runs, err := runner.Map(ctx, []design.Kind{kind, design.Baseline},
			runner.Options{Workers: *workers, Observer: plane.Hooks("compare")},
			func(_ context.Context, _ int, k design.Kind) (*sim.QueryResult, error) {
				r, err := cache.RunOne(k, design.Options{}, w, bench)
				if err != nil {
					return nil, fmt.Errorf("%v: %w", k, err)
				}
				return r, nil
			})
		if err != nil {
			return err
		}
		res, base = runs[0], runs[1]
	} else {
		finish := plane.Single("run")
		res, err = cache.RunOne(kind, design.Options{}, w, bench)
		finish(err)
		if err != nil {
			return err
		}
	}
	report(stdout, kind.String(), bench, res)
	if compared {
		if base == nil { // fault/trace path: baseline still to run
			if base, err = cache.RunOne(design.Baseline, design.Options{}, w, bench); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "\nspeedup vs baseline: %.2fx (baseline %d cycles)\n",
			sim.Speedup(base.Stats, res.Stats), base.Stats.Cycles)
	}
	var memoSnap *stats.Snapshot
	if cache != nil {
		if ct := cache.Counters(); ct.Lookups() > 0 {
			memoSnap = cache.StatsSnapshot()
			fmt.Fprintf(os.Stderr, "samsim: memo: %v\n", ct)
		}
	}
	if *statsJSON == "" {
		return nil
	}
	return outfile.JSON(*statsJSON, stdout, statsReport{
		Design: kind.String(), Query: bench.Name, SQL: bench.SQL,
		Rows: res.Rows, Aggregates: res.Aggregates, Stats: res.Stats, Memo: memoSnap,
	})
}

// extras are the run attachments that need a system built by hand: a
// fault model and the request, event and time-series tracers.
type extras struct {
	faults   *sim.FaultModel
	traceOut string       // -trace: the memory request trace
	events   etrace.Flags // -trace-out, -trace-csv and their window and ring size
	// leadBufs and leadSps are event traces of earlier runs (the -compare
	// baseline) that the Chrome file carries ahead of this run's.
	leadBufs []*etrace.Buffer
	leadSps  []*etrace.Sampler
}

// attached reports whether any extra is set.
func (x extras) attached() bool {
	return x.faults != nil || x.traceOut != "" || x.events.Enabled()
}

// traceBaseline runs q on the fault-free baseline with event tracing
// attached and queues its trace ahead of the design's in x.
func traceBaseline(w core.Workload, q core.BenchQuery, x *extras) (*sim.QueryResult, error) {
	buf, sp := x.events.New(design.Baseline.String())
	s := core.BenchSystem(design.Baseline, design.Options{}, w, q)
	s.AttachEventTrace(buf, sp)
	x.leadBufs, x.leadSps = []*etrace.Buffer{buf}, []*etrace.Sampler{sp}
	return core.RunOn(s, q)
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
	if x.events.Enabled() {
		buf, sp = x.events.New(kind.String())
		s.AttachEventTrace(buf, sp)
	}
	res, err := core.RunOn(s, q)
	if err != nil {
		return nil, err
	}
	if x.traceOut != "" {
		if err := outfile.Write(x.traceOut, s.TraceSink.Write); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace         %d requests -> %s\n", s.TraceSink.Len(), x.traceOut)
	}
	if x.events.Enabled() {
		err = x.events.Write(out, append(x.leadBufs, buf), append(x.leadSps, sp))
	}
	return res, err
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

func report(out io.Writer, designName string, q core.BenchQuery, r *sim.QueryResult) {
	st := r.Stats
	fmt.Fprintf(out, "design        %s\n", designName)
	fmt.Fprintf(out, "query         %s: %s\n", q.Name, q.SQL)
	fmt.Fprintf(out, "rows          %d\n", r.Rows)
	for i, agg := range r.Aggregates {
		fmt.Fprintf(out, "aggregate[%d]  %.6g\n", i, agg)
	}
	fmt.Fprintf(out, "cycles        %d (%.3f ms at 1200 MHz bus)\n", st.Cycles, st.Seconds(1200)*1e3)
	fmt.Fprintf(out, "mem requests  %d (row-hit rate %.1f%%)\n", st.MemRequests, st.RowHitRate*100)
	fmt.Fprintf(out, "device        ACT=%d RD=%d WR=%d sRD=%d sWR=%d REF=%d modeSwitch=%d\n",
		st.Device.Acts, st.Device.Reads, st.Device.Writes,
		st.Device.StrideReads, st.Device.StrideWrites, st.Device.Refs, st.Device.ModeSwitches)
	fmt.Fprintf(out, "energy        %.2f uJ (bg %.1f%%, act %.1f%%, rd/wr %.1f%%, ref %.1f%%)\n",
		st.Energy.Total()/1e3,
		pct(st.Energy.Background, st.Energy.Total()),
		pct(st.Energy.ActPre, st.Energy.Total()),
		pct(st.Energy.RdWr, st.Energy.Total()),
		pct(st.Energy.Refresh, st.Energy.Total()))
	fmt.Fprintf(out, "avg power     %.0f mW\n", st.PowerMW.Total())
	if rel := st.Reliability; rel != nil {
		fmt.Fprintf(out, "fault model   %d bursts probed, %d injected, %d corrected (%d symbols), %d DUE, %d silent\n",
			rel.Bursts, rel.Injected, rel.CorrectedBursts, rel.CorrectedSymbols,
			rel.DUEs, rel.SilentCorruptions)
		fmt.Fprintf(out, "reliability   %d retries, %d poisoned lines\n",
			st.Controller.Retries, st.Controller.Poisoned)
	}
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}
