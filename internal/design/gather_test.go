package design

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sam/internal/imdb"
)

// cloneGroup copies a gather group out of the placer's scratch.
func cloneGroup(g *StrideGroup) *StrideGroup {
	if g == nil {
		return nil
	}
	c := *g
	c.Fills = slices.Clone(g.Fills)
	return &c
}

// gatherPlacers is every layout a field access can go through: each design
// kind on the row-oriented layout of its choice, plus the column-store and
// hybrid placers.
func gatherPlacers() map[string]*Placer {
	ps := map[string]*Placer{}
	for k := Baseline; k <= RCNVMWd; k++ {
		for _, g := range allGrans {
			d := New(k, Options{Gran: g})
			ps[fmt.Sprintf("%v/%d-bit/Ta", k, g.BitsPerChip)] = NewPlacer(d, imdb.Ta(1<<12), 0, false)
			ps[fmt.Sprintf("%v/%d-bit/Tb", k, g.BitsPerChip)] = NewPlacer(d, imdb.Tb(1<<14), 1, false)
		}
	}
	ps["ideal/colstore"] = NewPlacer(New(Ideal, Options{}), imdb.Ta(1<<12), 0, true)
	ps["SAM-en/colstore"] = NewPlacer(New(SAMEn, Options{}), imdb.Tb(1<<12), 0, true)
	ps["SAM-en/hybrid"] = NewPlacerHybrid(New(SAMEn, Options{}), imdb.Ta(1<<12), 0, []int{3, 10, 64})
	return ps
}

// TestFieldAccessThenGatherMatchesReadField is the equivalence the engine's
// gather-on-miss path rests on: FieldAccess followed by Gather (when the
// access is sectored) yields exactly the transaction ReadField/WriteField
// builds eagerly — same address, size, direction, sectoring and group,
// fills in the same order — for every design kind, granularity and layout.
func TestFieldAccessThenGatherMatchesReadField(t *testing.T) {
	for name, p := range gatherPlacers() {
		rng := rand.New(rand.NewSource(12))
		for i := 0; i < 400; i++ {
			rec := rng.Intn(p.Schema.Records)
			field := rng.Intn(p.Schema.Fields)
			write := rng.Intn(2) == 0

			lazy := p.FieldAccess(rec, field, write)
			if lazy.Group != nil {
				t.Fatalf("%s: FieldAccess(%d, %d) built a group", name, rec, field)
			}
			if lazy.Sectored {
				lazy.Group = cloneGroup(p.Gather(rec, field))
			}
			eager := p.ReadField(rec, field)
			if write {
				eager = p.WriteField(rec, field)
			}
			if lazy.Addr != eager.Addr || lazy.Size != eager.Size || lazy.Write != eager.Write ||
				lazy.Sectored != eager.Sectored {
				t.Fatalf("%s rec %d field %d write %v: lazy %+v, eager %+v", name, rec, field, write, lazy, eager)
			}
			if (lazy.Group == nil) != (eager.Group == nil) {
				t.Fatalf("%s rec %d field %d: group presence lazy %v, eager %v",
					name, rec, field, lazy.Group != nil, eager.Group != nil)
			}
			if lazy.Group == nil {
				continue
			}
			lg, eg := lazy.Group, eager.Group
			if lg.ReqAddr != eg.ReqAddr || lg.Lane != eg.Lane || lg.Gang != eg.Gang || lg.Bursts != eg.Bursts ||
				!slices.Equal(lg.Fills, eg.Fills) {
				t.Fatalf("%s rec %d field %d: lazy group %+v, eager group %+v", name, rec, field, *lg, *eg)
			}
		}
	}
}

// benchPlacers are the per-layout microbenchmark subjects: two I/O-buffer
// gathers (consecutive records) and two stripe-layout gathers (column
// engines), all on the wide table the column-read queries scan.
func benchPlacers() []struct {
	name string
	p    *Placer
} {
	mk := func(k Kind) *Placer { return NewPlacer(New(k, Options{}), imdb.Ta(1<<14), 0, false) }
	return []struct {
		name string
		p    *Placer
	}{
		{"SAM-en/io", mk(SAMEn)},
		{"GS-DRAM-ecc/io", mk(GSDRAMecc)},
		{"SAM-sub/stripe", mk(SAMSub)},
		{"RC-NVM-wd/stripe", mk(RCNVMWd)},
	}
}

// BenchmarkPlacerReadField times the eager field transaction (address plus
// gather group) over a one-field column scan.
func BenchmarkPlacerReadField(b *testing.B) {
	for _, bp := range benchPlacers() {
		b.Run(bp.name, func(b *testing.B) {
			p, n := bp.p, bp.p.Schema.Records
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.ReadField(i%n, 10)
			}
		})
	}
}

// BenchmarkPlacerGather times the gather group alone — the work the engine
// now does only on a hierarchy miss.
func BenchmarkPlacerGather(b *testing.B) {
	for _, bp := range benchPlacers() {
		b.Run(bp.name, func(b *testing.B) {
			p, n := bp.p, bp.p.Schema.Records
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = p.Gather(i%n, 10)
			}
		})
	}
}
