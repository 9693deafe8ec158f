// Command samtrace generates and replays memory access traces against the
// controller+device stack, bypassing the query layer — useful for studying
// the raw timing behaviour of access patterns (and for feeding traces from
// other tools through SAM's memory system).
//
// Usage:
//
//	samtrace -gen strided -n 4096 > strided.trace
//	samtrace -replay strided.trace
//	samtrace -gen sequential -n 4096 | samtrace -replay -
//	samtrace -gen random -n 8192 -replay -   (generate and replay in one go)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"sam/internal/dram"
	"sam/internal/etrace"
	"sam/internal/mc"
	"sam/internal/obs"
	"sam/internal/outfile"
	"sam/internal/prof"
	"sam/internal/stats"
	"sam/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "samtrace:", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args (exiting 2 on a bad flag, 0 on
// -h), then generates and/or replays a trace, writing to stdout. The
// profiles and the observability plane are closed on every return path.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("samtrace", flag.ExitOnError)
	gen := fs.String("gen", "", "generate a trace: sequential, strided, random")
	n := fs.Int("n", 4096, "requests to generate")
	stride := fs.Int("stride", 1024, "byte stride for the strided pattern")
	replay := fs.String("replay", "", "replay a trace file ('-' for stdin)")
	rram := fs.Bool("rram", false, "replay against the RRAM personality")
	seed := fs.Int64("seed", 1, "generator seed")
	statsJSON := fs.String("stats-json", "", "write replay metrics as JSON to this file ('-' for stdout)")
	events := etrace.RegisterFlags(fs)
	startProf := prof.RegisterFlags(fs)
	obsFlags := obs.RegisterFlags(fs)
	_ = fs.Parse(args)

	plane, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, plane.Close()) }()

	stopProf, err := startProf()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	if *gen == "" && *replay == "" {
		return fmt.Errorf("nothing to do: pass -gen and/or -replay")
	}
	var tr *trace.Trace
	if *gen != "" {
		if tr, err = generate(*gen, *n, *stride, *seed); err != nil {
			return err
		}
		if *replay == "" {
			return tr.Write(stdout)
		}
	} else {
		in := os.Stdin
		if *replay != "-" {
			f, err := os.Open(*replay)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		if tr, err = trace.Read(in); err != nil {
			return err
		}
	}
	return report(stdout, tr, *rram, *statsJSON, events, plane)
}

func generate(kind string, n, stride int, seed int64) (*trace.Trace, error) {
	tr := &trace.Trace{}
	rng := rand.New(rand.NewSource(seed))
	arrival := dram.Cycle(0)
	for i := 0; i < n; i++ {
		rec := trace.Record{Arrival: arrival}
		switch kind {
		case "sequential":
			rec.Addr = uint64(i) * 64
		case "strided":
			// Field-scan shape: one line per record at the given stride,
			// issued as SAM strided requests (one per group of 8).
			rec.Addr = uint64(i) * uint64(stride) * 8
			rec.Stride = true
			rec.Lane = (i / 64) % 4
			rec.Gang = true
		case "random":
			rec.Addr = uint64(rng.Intn(1<<28)) &^ 63
			rec.IsWrite = rng.Intn(4) == 0
		default:
			return nil, fmt.Errorf("unknown pattern %q", kind)
		}
		arrival += dram.Cycle(1 + rng.Intn(4))
		tr.Add(rec)
	}
	return tr, nil
}

func report(out io.Writer, tr *trace.Trace, rram bool, statsJSON string, events *etrace.Flags, plane *obs.Plane) error {
	cfg := dram.DDR4_2400()
	if rram {
		cfg = dram.RRAM()
	}
	dev := dram.NewDevice(cfg)
	ctrl := mc.NewController(dev, mc.DefaultConfig())
	reg := stats.NewRegistry()
	ctrl.Metrics = mc.NewMetrics(reg)

	// Event tracing: the replay stack is single-channel and freshly built,
	// so the controller/device stats are already run-relative and the
	// completion observer can drive the windowed sampler directly.
	var buf *etrace.Buffer
	var sp *etrace.Sampler
	var observe func(mc.Completion)
	snap := func(at int64) etrace.Sample {
		return etrace.Sample{At: at, Ctl: ctrl.Stats, Dev: dev.Stats.Clone(), Queue: ctrl.Pending()}
	}
	if events.Enabled() {
		buf, sp = events.New(cfg.Name)
		ct := buf.Channel(0)
		ctrl.Trace = ct
		dev.Trace = ct
		observe = func(c mc.Completion) { sp.Observe(c.DataEnd, snap) }
	}
	finish := plane.Single("replay")
	comps, err := trace.ReplayObserved(tr, ctrl, observe)
	finish(err)
	// The replay mutates reg from this goroutine, so the controller
	// registry joins the /metrics surface only once it has quiesced.
	plane.AddSource(reg.Snapshot)
	if err != nil {
		// Surface how far the replay got instead of discarding the partial
		// result with the error.
		fmt.Fprintf(os.Stderr, "samtrace: replay stopped after %d of %d requests completed\n",
			len(comps), tr.Len())
		return err
	}

	var end dram.Cycle
	for _, c := range comps {
		if c.DataEnd > end {
			end = c.DataEnd
		}
	}
	st := ctrl.Stats
	fmt.Fprintf(out, "device        %s\n", cfg.Name)
	fmt.Fprintf(out, "requests      %d (%d reads, %d writes, %d strided)\n",
		len(comps), st.Reads, st.Writes, st.StrideAccesses)
	fmt.Fprintf(out, "cycles        %d (%.3f us)\n", end, cfg.CyclesToNs(uint64(end))/1e3)
	if len(comps) > 0 {
		fmt.Fprintf(out, "throughput    %.2f cycles/request\n", float64(end)/float64(len(comps)))
	}
	total := st.RowHits + st.RowMisses + st.RowEmpties
	if total > 0 {
		fmt.Fprintf(out, "row buffer    %.1f%% hit, %.1f%% conflict, %.1f%% empty\n",
			100*float64(st.RowHits)/float64(total),
			100*float64(st.RowMisses)/float64(total),
			100*float64(st.RowEmpties)/float64(total))
	}
	for _, class := range []struct {
		name string
		h    *stats.Histogram
	}{
		{"read.normal ", ctrl.Metrics.LatReadNormal},
		{"read.stride ", ctrl.Metrics.LatReadStride},
		{"write.normal", ctrl.Metrics.LatWriteNormal},
		{"write.stride", ctrl.Metrics.LatWriteStride},
	} {
		if class.h.Total() == 0 {
			continue
		}
		fmt.Fprintf(out, "lat %s  n=%d mean %.1f, p50 <=%d, p99 <=%d cycles\n",
			class.name, class.h.Total(), class.h.Mean(),
			class.h.Quantile(0.5), class.h.Quantile(0.99))
	}
	fmt.Fprintf(out, "device cmds   ACT=%d PRE=%d REF=%d modeSwitch=%d\n",
		dev.Stats.Acts, dev.Stats.Pres, dev.Stats.Refs, dev.Stats.ModeSwitches)

	if events.Enabled() {
		sp.Close(end, snap)
		if err := events.Write(out, []*etrace.Buffer{buf}, []*etrace.Sampler{sp}); err != nil {
			return err
		}
	}
	if statsJSON == "" {
		return nil
	}
	return outfile.JSON(statsJSON, out, struct {
		Device   string
		Requests int
		Cycles   dram.Cycle
		Metrics  *stats.Snapshot
	}{cfg.Name, len(comps), end, reg.Snapshot()})
}
