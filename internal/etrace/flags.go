package etrace

import (
	"flag"
	"fmt"
	"io"

	"sam/internal/outfile"
)

// Flags holds the event-trace options the batch commands share, and
// RegisterFlags gives every command the same -trace-out, -trace-csv,
// -trace-window and -trace-limit.
type Flags struct {
	// Out names the Chrome/Perfetto trace-event JSON file.
	Out string
	// CSV names the windowed time-series CSV file.
	CSV string
	// Window is the sampling window in bus cycles.
	Window int64
	// Limit is the event-ring capacity (0 = DefaultCapacity).
	Limit int
}

// RegisterFlags adds the event-trace flags to fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Out, "trace-out", "", "write a cycle-accurate Chrome/Perfetto trace-event JSON to this file")
	fs.StringVar(&f.CSV, "trace-csv", "", "write the windowed time-series samples as CSV to this file")
	fs.Int64Var(&f.Window, "trace-window", 2048, "sampling window for the trace time series (bus cycles)")
	fs.IntVar(&f.Limit, "trace-limit", DefaultCapacity, "event-ring capacity; oldest events drop beyond this")
	return f
}

// Enabled reports whether a trace file is requested.
func (f *Flags) Enabled() bool { return f.Out != "" || f.CSV != "" }

// New returns an event ring and a windowed sampler sized by the flags,
// both labelled name.
func (f *Flags) New(name string) (*Buffer, *Sampler) {
	buf := NewBuffer(f.Limit)
	buf.Name = name
	sp := NewSampler(f.Window)
	sp.Name = name
	return buf, sp
}

// Write writes every buffer and sampler into one Chrome JSON file at Out,
// in order, and the last sampler's series as CSV to CSV (each only when
// named), reporting each file on out.
func (f *Flags) Write(out io.Writer, bufs []*Buffer, sps []*Sampler) error {
	if f.Out != "" {
		err := outfile.Write(f.Out, func(w io.Writer) error { return WriteChrome(w, bufs, sps) })
		if err != nil {
			return err
		}
		var events, samples int
		var dropped uint64
		for i, b := range bufs {
			events += b.Len()
			dropped += b.Dropped()
			samples += len(sps[i].Samples)
		}
		fmt.Fprintf(out, "event trace   %d events (%d dropped), %d samples -> %s\n",
			events, dropped, samples, f.Out)
	}
	if f.CSV != "" {
		sp := sps[len(sps)-1]
		if err := outfile.Write(f.CSV, func(w io.Writer) error { return WriteCSV(w, sp) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace csv     %d samples (window %d cycles) -> %s\n",
			len(sp.Samples), sp.Window, f.CSV)
	}
	return nil
}
