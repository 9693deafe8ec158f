package etrace

import (
	"fmt"
	"io"

	"sam/internal/dram"
	"sam/internal/mc"
)

// Sample is one windowed snapshot of the system's cumulative run statistics.
// Ctl and Dev are run-relative cumulative totals at time At (aggregated
// across channels); consumers difference consecutive samples to recover
// per-window rates.
type Sample struct {
	// At is the sample boundary in bus cycles, relative to run start.
	At int64
	// Ctl aggregates controller stats across channels, cumulative since
	// run start.
	Ctl mc.Stats
	// Dev aggregates device stats across channels, cumulative since run
	// start (includes per-bank accounting).
	Dev dram.DeviceStats
	// Queue is the total queued requests across channels at sample time.
	Queue int
	// Inflight is the driver's outstanding-request count at sample time.
	Inflight int
}

// Sampler collects Samples every Window bus cycles. The driver (sim engine
// or a replay loop) reports each completion time to Observe and the run's
// end to Close; both take a snap callback that builds the Sample at a
// boundary.
type Sampler struct {
	// Name labels the series in exports (typically the design name).
	Name string
	// Window is the sampling period in bus cycles.
	Window int64
	// Samples holds the recorded series, oldest first.
	Samples []Sample

	next  int64 // next due boundary
	clock int64 // high-water completion time seen by Observe
}

// NewSampler builds a sampler with the given window (bus cycles).
func NewSampler(window int64) *Sampler {
	if window <= 0 {
		panic("etrace: sampler window must be positive")
	}
	return &Sampler{Window: window, next: window}
}

// Due reports whether a sample boundary is at or behind now (relative
// cycles).
func (s *Sampler) Due(now int64) bool { return now >= s.next }

// Advance consumes the due boundary and returns its timestamp, which
// becomes Sample.At so the series stays on exact window multiples even
// when the driver's clock jumps several windows at once.
func (s *Sampler) Advance() int64 {
	at := s.next
	s.next += s.Window
	return at
}

// Record appends one sample.
func (s *Sampler) Record(smp Sample) { s.Samples = append(s.Samples, smp) }

// Observe ratchets the sampler's clock to now (relative cycles) and records
// snap(at) for every window boundary the clock has crossed. Completions
// arrive out of order across channels, so the clock only moves forward.
func (s *Sampler) Observe(now int64, snap func(at int64) Sample) {
	s.clock = max(s.clock, now)
	for s.Due(s.clock) {
		s.Record(snap(s.Advance()))
	}
}

// Close records the boundaries up to the run's end, then a final flush
// sample at end that closes the last partial window, so the series'
// cumulative totals equal the run's.
func (s *Sampler) Close(end int64, snap func(at int64) Sample) {
	s.Observe(end, snap)
	if n := len(s.Samples); n == 0 || s.Samples[n-1].At < end {
		s.Record(snap(end))
	}
}

// csvHeader lists the per-window CSV columns.
const csvHeader = "at,reads,writes,stride_reads,stride_writes,acts,pres,refs," +
	"bus_busy,bus_util_pct,row_hit_pct,queue,inflight\n"

// WriteCSV renders the series as per-window deltas, one row per sample:
// command counts within the window, bus utilization and row-hit rate over
// the window, and the instantaneous queue depth and inflight count at the
// boundary. Rates divide by the actual span to the previous sample, so a
// final partial-window flush sample stays correct.
func WriteCSV(w io.Writer, s *Sampler) error {
	if _, err := io.WriteString(w, csvHeader); err != nil {
		return err
	}
	var prev Sample
	for _, smp := range s.Samples {
		dc := smp.Ctl.Sub(prev.Ctl)
		dd := smp.Dev.Sub(prev.Dev)
		span := smp.At - prev.At
		busUtil, hitPct := 0.0, 0.0
		if span > 0 {
			busUtil = 100 * float64(dd.BusBusyCycles) / float64(span)
		}
		if n := dc.RowHits + dc.RowMisses + dc.RowEmpties; n > 0 {
			hitPct = 100 * float64(dc.RowHits) / float64(n)
		}
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%.2f,%d,%d\n",
			smp.At, dd.Reads, dd.Writes, dd.StrideReads, dd.StrideWrites,
			dd.Acts, dd.Pres, dd.Refs, dd.BusBusyCycles, busUtil, hitPct,
			smp.Queue, smp.Inflight)
		if err != nil {
			return err
		}
		prev = smp
	}
	return nil
}
