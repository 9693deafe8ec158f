// Command samfig regenerates the paper's tables and figures (Section 6) as
// plain-text tables or CSV. Every figure's grid of independent simulations
// runs on a bounded worker pool; the emitted tables are byte-identical for
// any -workers value, and Ctrl-C cancels a sweep mid-flight.
//
// Usage:
//
//	samfig -exp all
//	samfig -exp fig12 -ta 16384 -tb 131072
//	samfig -exp fig15a -csv
//	samfig -exp all -small -workers 8 -progress
//	samfig -exp fig12 -cache-dir .samcache   # warm re-runs skip simulation
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"sam/internal/core"
	"sam/internal/memo"
	"sam/internal/obs"
	"sam/internal/outfile"
	"sam/internal/prof"
	"sam/internal/sim"
	"sam/internal/stats"
)

// metricEntry is one simulation's statistics inside a figure's metrics
// dump: the figure cell it belongs to plus the full run report.
type metricEntry struct {
	X      string
	Design string
	Stats  sim.RunStats
}

// metricsFile is the on-disk shape of <metrics-dir>/<figID>.json: every
// run's statistics in emission order, plus the merge of all histogram
// snapshots across the figure (a stats.Snapshot.Merge exercise — entries
// arrive in the drivers' fixed aggregation order, so the file is
// byte-identical for any -workers value).
type metricsFile struct {
	Figure  string
	Entries []metricEntry
	Merged  *stats.Snapshot
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "samfig:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (exiting 2 on a bad flag, 0 on
// -h) and writes the requested tables to stdout. The profiles and the
// observability plane are closed on every return path, a cancelled sweep
// included.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("samfig", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: table1, table2, table3, fig12, fig13, fig14a, fig14b, fig14c, fig15a..fig15i, reliability, all")
	taRecords := fs.Int("ta", 0, "records in the wide table Ta (0 = default)")
	tbRecords := fs.Int("tb", 0, "records in the narrow table Tb (0 = default)")
	sweepRecords := fs.Int("sweep-records", 2048, "table records per Fig.15 sweep point")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	small := fs.Bool("small", false, "use the small (test-scale) workload")
	workers := fs.Int("workers", 0, "max parallel simulations per sweep (0 = GOMAXPROCS, 1 = serial)")
	progress := fs.Bool("progress", false, "report per-sweep progress on stderr")
	metricsDir := fs.String("metrics-dir", "", "dump per-figure run metrics as JSON files into this directory")
	newMemo := core.RegisterMemoFlags(fs)
	relOut := fs.String("reliability-out", "", "write the reliability campaign summary as JSON to this file")
	startProf := prof.RegisterFlags(fs)
	obsFlags := obs.RegisterFlags(fs)
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	w := core.DefaultWorkload()
	if *small {
		w = core.SmallWorkload()
	}
	if *taRecords > 0 {
		w.TaRecords = *taRecords
	}
	if *tbRecords > 0 {
		w.TbRecords = *tbRecords
	}

	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	// One memo cache is shared across every figure and sweep of the
	// invocation, so `-exp all` simulates each distinct (design, workload,
	// query) cell once no matter how many figures evaluate it. Figures are
	// byte-identical with the cache on or off; -no-cache recovers the
	// run-everything behaviour, -cache-dir adds the persistent tier.
	cache := newMemo()

	// The observability plane (nil when both flags are off) serves live
	// /metrics, /progress, and the stall watchdog while figures run, and
	// appends the JSONL run-lifecycle event log.
	plane, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	if cache != nil {
		plane.AddSource(cache.StatsSnapshot)
	}
	defer func() { err = errors.Join(err, plane.Close()) }()

	// collected gathers per-run metrics by figure ID, in emission order
	// (the drivers call Par.Metrics from their deterministic aggregation
	// loops, never from workers).
	collected := map[string]*metricsFile{}
	var collectedOrder []string
	var mergeErr error

	// par builds the per-sweep parallelism config; the progress callback
	// rewrites one stderr line per completed simulation of that sweep.
	par := func(name string) core.Par {
		p := core.Par{Workers: *workers, Memo: cache, Observer: plane.Hooks(name)}
		if *progress {
			p.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs", name, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
		if *metricsDir != "" {
			p.Metrics = func(figID, x, designName string, st sim.RunStats) {
				mf, ok := collected[figID]
				if !ok {
					mf = &metricsFile{Figure: figID, Merged: &stats.Snapshot{}}
					collected[figID] = mf
					collectedOrder = append(collectedOrder, figID)
				}
				mf.Entries = append(mf.Entries, metricEntry{X: x, Design: designName, Stats: st})
				if err := mf.Merged.Merge(st.Metrics); err != nil && mergeErr == nil {
					mergeErr = fmt.Errorf("%s: %w", figID, err)
				}
			}
		}
		return p
	}

	emit := func(title string, tb *stats.Table) {
		fmt.Fprintf(stdout, "== %s ==\n", title)
		if *csv {
			fmt.Fprint(stdout, tb.CSV())
		} else {
			fmt.Fprint(stdout, tb.String())
		}
		fmt.Fprintln(stdout)
	}

	// ran records whether -exp named anything; a name that runs nothing
	// is unknown.
	ran := false
	wants := func(name string) bool {
		ok := *exp == "all" || *exp == name || (*exp == "fig15" && strings.HasPrefix(name, "fig15"))
		ran = ran || ok
		return ok
	}

	if wants("table1") {
		emit("Table 1: qualitative comparison (+/o/x)", core.Table1())
	}
	if wants("table2") {
		emit("Table 2: simulated system parameters", core.Table2())
	}
	if wants("table3") {
		tb, err := core.Table3()
		if err != nil {
			return err
		}
		emit("Table 3: benchmark queries (parsed and planned)", tb)
	}
	if wants("fig12") {
		fig, err := core.Fig12(ctx, w, par("fig12"))
		if err != nil {
			return err
		}
		emit("Fig 12: speedup vs row-store baseline", fig.Table())
	}
	if wants("fig13") {
		rows, err := core.Fig13(ctx, w, par("fig13"))
		if err != nil {
			return err
		}
		tb := stats.NewTable("category", "design", "bg mW", "rd/wr mW", "act mW", "total mW", "energy eff")
		for _, r := range rows {
			tb.AddRow(r.Category, r.Design,
				fmt.Sprintf("%.0f", r.Background), fmt.Sprintf("%.0f", r.RdWr),
				fmt.Sprintf("%.0f", r.ActPre), fmt.Sprintf("%.0f", r.TotalMW),
				fmt.Sprintf("%.2f", r.EnergyEff))
		}
		emit("Fig 13: power and normalized energy efficiency", tb)
	}
	if wants("fig14a") {
		fig, err := core.Fig14a(ctx, w, par("fig14a"))
		if err != nil {
			return err
		}
		emit("Fig 14a: substrate swap (all-query gmean speedup)", fig.Table())
	}
	if wants("fig14b") {
		fig, err := core.Fig14b(ctx, w, par("fig14b"))
		if err != nil {
			return err
		}
		emit("Fig 14b: strided granularity sweep (Q-query gmean)", fig.Table())
	}
	if wants("fig14c") {
		emit("Fig 14c: area and storage overhead", core.Fig14c().Table())
	}
	if wants("reliability") {
		camp := core.DefaultReliabilityCampaign()
		results, err := core.RunReliability(ctx, camp, par("reliability"))
		if err != nil {
			return err
		}
		tb := stats.NewTable("design", "bits", "scheme", "model", "rate",
			"bursts", "injected", "corrected", "DUE", "silent", "retries", "poisoned")
		for _, r := range results {
			rate := "-"
			if r.Model == core.ModelTransient {
				rate = fmt.Sprintf("%g", r.Rate)
			}
			tb.AddRow(r.Design, fmt.Sprintf("%d", r.Bits), r.Scheme, r.Model, rate,
				fmt.Sprintf("%d", r.Counters.Bursts), fmt.Sprintf("%d", r.Counters.Injected),
				fmt.Sprintf("%d", r.Counters.CorrectedBursts), fmt.Sprintf("%d", r.Counters.DUEs),
				fmt.Sprintf("%d", r.Counters.SilentCorruptions),
				fmt.Sprintf("%d", r.Retries), fmt.Sprintf("%d", r.Poisoned))
		}
		emit("Reliability: fault campaign (chipkill at the burst boundary)", tb)
		if *relOut != "" {
			summary := struct {
				Seed     uint64                   `json:"seed"`
				TotalSDC uint64                   `json:"total_sdc"`
				Cells    []core.ReliabilityResult `json:"cells"`
			}{camp.Seed, core.TotalSDC(results), results}
			if err := outfile.JSON(*relOut, stdout, summary); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s (%d cells)\n", *relOut, len(results))
		}
		if n := core.TotalSDC(results); n != 0 {
			return fmt.Errorf("reliability campaign took %d silent data corruptions", n)
		}
	}

	sweeps := []struct {
		name, title string
		run         func(core.Par) (*core.Figure, error)
	}{
		{"fig15a", "Fig 15a: arithmetic, speedup vs selectivity (8 fields)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 8, *sweepRecords, p)
		}},
		{"fig15b", "Fig 15b: arithmetic, speedup vs selectivity (64 fields)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 64, *sweepRecords, p)
		}},
		{"fig15c", "Fig 15c: arithmetic, speedup vs selectivity (all fields)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Arithmetic, 128, *sweepRecords, p)
		}},
		{"fig15d", "Fig 15d: arithmetic, speedup vs projectivity (10% selected)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 0.10, *sweepRecords, p)
		}},
		{"fig15e", "Fig 15e: arithmetic, speedup vs projectivity (50% selected)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 0.50, *sweepRecords, p)
		}},
		{"fig15f", "Fig 15f: arithmetic, speedup vs projectivity (100% selected)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Arithmetic, 1.00, *sweepRecords, p)
		}},
		{"fig15g", "Fig 15g: aggregate, speedup vs selectivity (8 fields)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15SelectivitySweep(ctx, core.Aggregate, 8, *sweepRecords, p)
		}},
		{"fig15h", "Fig 15h: aggregate, speedup vs projectivity (100% selected)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15ProjectivitySweep(ctx, core.Aggregate, 1.00, *sweepRecords, p)
		}},
		{"fig15i", "Fig 15i: speedup vs record size (100%/100%)", func(p core.Par) (*core.Figure, error) {
			return core.Fig15RecordSizeSweep(ctx, *sweepRecords, p)
		}},
	}
	for _, sw := range sweeps {
		if wants(sw.name) {
			fig, err := sw.run(par(sw.name))
			if err != nil {
				return err
			}
			emit(sw.title, fig.Table())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	if *metricsDir != "" {
		if mergeErr != nil {
			return mergeErr
		}
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			return err
		}
		for _, figID := range collectedOrder {
			path := filepath.Join(*metricsDir, figID+".json")
			if err := outfile.JSON(path, stdout, collected[figID]); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s (%d runs)\n", path, len(collected[figID].Entries))
		}
		// The memo instruments land in their own file, not the per-figure
		// dumps — those stay byte-identical with the cache on or off.
		if cache != nil {
			dump := struct {
				Schema   string          `json:"schema"`
				Counters memo.Counters   `json:"counters"`
				Stats    *stats.Snapshot `json:"stats"`
			}{memo.SchemaVersion, cache.Counters(), cache.StatsSnapshot()}
			path := filepath.Join(*metricsDir, "memo.json")
			if err := outfile.JSON(path, stdout, dump); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "samfig: wrote %s\n", path)
		}
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "samfig: memo: %v\n", cache.Counters())
	}
	return nil
}
