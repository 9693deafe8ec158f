package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// byteStream decodes a differential run from raw bytes, so the seeded test
// and the fuzzer run the same op sequences. An exhausted stream reads as
// zeros.
type byteStream []byte

func (b *byteStream) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

func (b *byteStream) uint(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b.byte())
	}
	return v
}

// diffPair is one hierarchy under test next to its frozen reference.
type diffPair struct {
	t     *testing.T
	h     *Hierarchy
	ref   *refHierarchy
	lines uint64 // line indices drawn below this collide across sets
	step  int
}

// newDiffPair decodes the geometry: 1–3 levels of 64 B lines, 1–16 ways
// and 1, 4, 16, 64 or 256 sets each (256 spans several of flushDirty's
// 64-set groups), and 1, 2, 4 or 8 sectors shared by every level.
func newDiffPair(t *testing.T, in *byteStream) *diffPair {
	sectors := 1 << (in.byte() % 4)
	nLevels := 1 + int(in.byte()%3)
	p := &diffPair{t: t}
	var levels []*Cache
	var refs []*refCache
	for i := 0; i < nLevels; i++ {
		ways := 1 + int(in.byte()%16)
		sets := 1 << (in.byte() % 5 * 2)
		cfg := Config{
			Name: fmt.Sprintf("L%d", i+1), SizeBytes: 64 * ways * sets, LineBytes: 64,
			Ways: ways, Sectors: sectors, HitLatency: 1 + 10*i,
		}
		levels = append(levels, New(cfg))
		refs = append(refs, newRefCache(cfg))
		p.lines += uint64(ways * sets)
	}
	p.h, p.ref = NewHierarchy(levels...), newRefHierarchy(refs...)
	// Twice the total capacity keeps every level under replacement pressure.
	p.lines *= 2
	return p
}

// addr draws a byte address: usually among a few conflicting lines, now
// and then one whose line index has bit 46 set, which fills all 47 tag bits
// of a one-set level.
func (p *diffPair) addr(in *byteStream) uint64 {
	sel := in.byte()
	off := uint64(in.byte() % 64)
	switch {
	case sel < 8:
		return (in.uint(6)&(1<<46-1)|1<<46)<<6 | off
	case sel < 16:
		return (uint64(sel)|1<<46)<<6 | off
	}
	return (uint64(sel)+in.uint(1)<<8)%p.lines<<6 | off
}

func (p *diffPair) step1(in *byteStream) {
	p.step++
	op := in.byte() % 16
	switch {
	case op < 7:
		addr := p.addr(in)
		size := 1 + int(in.byte())%(64-int(addr%64))
		write, sectored := in.byte()&1 != 0, in.byte()&1 != 0
		got := p.h.Access(addr, size, write, sectored)
		want := p.ref.Access(addr, size, write, sectored)
		p.check("Access", got, want)
	case op < 10:
		lvl := int(in.byte()) % p.h.Levels()
		addr := p.addr(in)
		sectors := 1 + in.uint(1)%p.h.Level(lvl).FullSectorMask()
		dirty, sectored := in.byte()&1 != 0, in.byte()&1 != 0
		ev, evicted := p.h.Level(lvl).Fill(addr, sectors, dirty, sectored)
		wev, wevicted := p.ref.levels[lvl].Fill(addr, sectors, dirty, sectored)
		p.check("Fill", [2]any{ev, evicted}, [2]any{wev, wevicted})
	case op < 12:
		addr := p.addr(in) &^ 63
		sectors := 1 + in.uint(1)%p.h.LLC().FullSectorMask()
		sectored := in.byte()&1 != 0
		p.check("FillLine", p.h.FillLine(addr, sectors, sectored), p.ref.FillLine(addr, sectors, sectored))
	case op == 12:
		lvl := int(in.byte()) % p.h.Levels()
		addr := p.addr(in)
		size := 1 + int(in.byte())%(64-int(addr%64))
		write := in.byte()&1 != 0
		p.check("Level.Access", p.h.Level(lvl).Access(addr, size, write), p.ref.levels[lvl].Access(addr, size, write))
	case op == 13:
		// MDA's coherence path: probe, then drop the line without writeback.
		lvl := int(in.byte()) % p.h.Levels()
		addr := p.addr(in)
		p.check("Contains", p.h.Level(lvl).Contains(addr, 1), p.ref.levels[lvl].Contains(addr, 1))
		p.h.Level(lvl).invalidateLine(addr)
		p.ref.levels[lvl].invalidateLine(addr)
	case op == 14:
		p.check("FlushDirty", p.h.FlushDirty(), p.ref.FlushDirty())
	default:
		if in.byte()%8 == 0 {
			p.h.InvalidateAll()
			p.ref.InvalidateAll()
		}
	}
	for i := range p.ref.levels {
		p.check(fmt.Sprintf("L%d Stats", i+1), p.h.Level(i).Stats, p.ref.levels[i].Stats)
	}
}

func (p *diffPair) check(what string, got, want any) {
	p.t.Helper()
	// A nil and an empty op list are the same outcome.
	if g, ok := got.([]MemOp); ok && len(g) == 0 {
		got = []MemOp(nil)
	}
	if w, ok := want.([]MemOp); ok && len(w) == 0 {
		want = []MemOp(nil)
	}
	if r, ok := got.(AccessResult); ok && len(r.MemOps) == 0 {
		r.MemOps = nil
		got = r
	}
	if r, ok := want.(AccessResult); ok && len(r.MemOps) == 0 {
		r.MemOps = nil
		want = r
	}
	if !reflect.DeepEqual(got, want) {
		p.t.Fatalf("op %d: %s = %+v, reference %+v", p.step, what, got, want)
	}
}

// runDifferential drives Cache/Hierarchy and the frozen reference through
// the op sequence data encodes and requires identical results throughout,
// ending with a flush so no dirty state escapes the comparison.
func runDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	p := newDiffPair(t, &in)
	for len(in) > 0 {
		p.step1(&in)
	}
	p.check("final FlushDirty", p.h.FlushDirty(), p.ref.FlushDirty())
}

// TestCacheDifferential runs random op sequences over every way count
// 1–16 and every sector count a 64 B line admits.
func TestCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for ways := 1; ways <= 16; ways++ {
		for _, sectorSel := range []byte{0, 1, 2, 3} {
			for trial := 0; trial < 4; trial++ {
				data := make([]byte, 6000)
				rng.Read(data)
				// Pin the header: sectors, 1–3 levels, then this way count
				// on the first level.
				data[0], data[1], data[2] = sectorSel, byte(trial), byte(ways-1)
				t.Run(fmt.Sprintf("ways=%d/sectors=%d/%d", ways, 1<<sectorSel, trial), func(t *testing.T) {
					runDifferential(t, data)
				})
			}
		}
	}
}

func FuzzCacheDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 16, 400, 3000} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(runDifferential)
}
