package cache

import (
	"math/rand"
	"runtime"
	"testing"
)

func smallCache(sectors int) *Cache {
	return New(Config{
		Name: "test", SizeBytes: 4096, LineBytes: 64, Ways: 4,
		Sectors: sectors, HitLatency: 4,
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 64, Ways: 4, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 3, Sectors: 1},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 7},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 128},
		// The packed way word holds 8 sector bits and a set's recency
		// order 16 way indices; each geometry below is otherwise valid.
		{SizeBytes: 72 * 4 * 16, LineBytes: 72, Ways: 4, Sectors: 9},
		{SizeBytes: 4096, LineBytes: 64, Ways: 4, Sectors: 64},
		{SizeBytes: 64 * 17 * 4, LineBytes: 64, Ways: 17, Sectors: 1},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := Config{Name: "L1", SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, Sectors: 4, HitLatency: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(1)
	if got := c.Access(0x1000, 8, false); got != LineMiss {
		t.Fatalf("first access = %v, want LineMiss", got)
	}
	c.Fill(0x1000, c.FullSectorMask(), false, false)
	if got := c.Access(0x1000, 8, false); got != Hit {
		t.Fatalf("after fill = %v, want Hit", got)
	}
	if got := c.Access(0x1038, 8, false); got != Hit {
		t.Fatalf("same line different offset = %v, want Hit", got)
	}
}

func TestSectorMiss(t *testing.T) {
	c := smallCache(4)
	c.Fill(0x1000, 0b0001, false, true) // only sector 0 valid
	if got := c.Access(0x1000, 8, false); got != Hit {
		t.Fatalf("sector 0 = %v, want Hit", got)
	}
	if got := c.Access(0x1010, 8, false); got != SectorMiss {
		t.Fatalf("sector 1 = %v, want SectorMiss", got)
	}
	c.Fill(0x1010, 0b0010, false, true)
	if got := c.Access(0x1010, 8, false); got != Hit {
		t.Fatalf("sector 1 after widen = %v, want Hit", got)
	}
	if c.Stats.SectorMisses != 1 {
		t.Fatalf("sector miss count = %d", c.Stats.SectorMisses)
	}
}

func TestAccessSpanningSectors(t *testing.T) {
	c := smallCache(4)
	c.Fill(0x1000, 0b0011, false, true)
	// [0x100c, 0x1014) touches sectors 0 and 1, both valid.
	if got := c.Access(0x100c, 8, false); got != Hit {
		t.Fatalf("cross-sector access = %v, want Hit", got)
	}
	// [0x101c, 0x1024) touches sectors 1 and 2; 2 invalid.
	if got := c.Access(0x101c, 8, false); got != SectorMiss {
		t.Fatalf("cross into invalid sector = %v, want SectorMiss", got)
	}
}

func TestAccessCrossingLinePanics(t *testing.T) {
	c := smallCache(1)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	c.Access(0x103c, 16, false)
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(1)
	// 16 sets; same set = addresses 64*16 apart. Fill 5 lines in one set.
	base := uint64(0)
	step := uint64(64 * 16)
	for i := uint64(0); i < 4; i++ {
		c.Fill(base+i*step, 1, false, false)
	}
	// Touch line 0 so line 1 is LRU.
	c.Access(base, 8, false)
	ev, dirty := c.Fill(base+4*step, 1, false, false)
	if dirty {
		t.Fatal("clean eviction flagged dirty")
	}
	if ev.LineAddr != base+1*step {
		t.Fatalf("evicted %x, want LRU line %x", ev.LineAddr, base+step)
	}
	if c.Contains(base+step, 8) {
		t.Fatal("evicted line still present")
	}
	if !c.Contains(base, 8) {
		t.Fatal("recently used line evicted")
	}
}

func TestDirtyEvictionCarriesSectorShape(t *testing.T) {
	c := smallCache(4)
	base := uint64(0)
	step := uint64(64 * 16)
	c.Fill(base, 0b0100, true, true) // strided dirty sector 2
	for i := uint64(1); i < 4; i++ {
		c.Fill(base+i*step, c.FullSectorMask(), false, false)
	}
	ev, dirty := c.Fill(base+4*step, c.FullSectorMask(), false, false)
	if !dirty {
		t.Fatal("dirty line evicted silently")
	}
	if ev.Dirty != 0b0100 || !ev.Sectored {
		t.Fatalf("eviction lost sector shape: %+v", ev)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := smallCache(4)
	c.Fill(0x2000, c.FullSectorMask(), false, false)
	c.Access(0x2010, 8, true)
	// Evict it and check dirty bitmap has sector 1.
	step := uint64(64 * 16)
	for i := uint64(1); i <= 4; i++ {
		c.Fill(0x2000+i*step, c.FullSectorMask(), false, false)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats.DirtyEvictions)
	}
}

func TestEvictionAddressReconstruction(t *testing.T) {
	c := smallCache(1)
	rng := rand.New(rand.NewSource(3))
	step := uint64(64 * 16)
	for trial := 0; trial < 100; trial++ {
		c.InvalidateAll()
		addr := uint64(rng.Intn(1<<20)) &^ 63
		c.Fill(addr, 1, true, false)
		var ev Eviction
		var got bool
		for i := uint64(1); i <= 4 && !got; i++ {
			ev, got = c.Fill(addr+i*step, 1, false, false)
		}
		if !got {
			t.Fatal("victim never evicted")
		}
		if ev.LineAddr != addr {
			t.Fatalf("reconstructed %x, want %x", ev.LineAddr, addr)
		}
	}
}

func TestInvalidateAll(t *testing.T) {
	c := smallCache(1)
	c.Fill(0x3000, 1, false, false)
	c.InvalidateAll()
	if c.Contains(0x3000, 8) {
		t.Fatal("line survived invalidate")
	}
}

func TestWideTagPanics(t *testing.T) {
	c := smallCache(1) // 16 sets of 64 B lines: the tag starts at bit 10
	c.Fill(1<<57-1, 1, false, false)
	if !c.Contains(1<<57-1, 1) {
		t.Fatal("47-bit tag not resident after fill")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("48-bit tag accepted")
		}
	}()
	c.Access(1<<57, 8, false)
}

func TestFillBadSectorsPanics(t *testing.T) {
	for _, sectors := range []uint64{0, 0b1_0000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fill of sectors %#b in a 4-sector line accepted", sectors)
				}
			}()
			smallCache(4).Fill(0x1000, sectors, false, true)
		}()
	}
}

// TestDefaultLLCFootprint pins the packed storage: building the default
// 8 MiB LLC and filling every one of its lines allocates at most 9 B per
// line (its way word and an eighth of its set's order word), plus 512 B for
// the level's header and its 32 B of dirty-group bits.
func TestDefaultLLCFootprint(t *testing.T) {
	const size, lineBytes = 8 << 20, 64
	const lines = size / lineBytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(Config{Name: "LLC", SizeBytes: size, LineBytes: lineBytes, Ways: 8, Sectors: 8, HitLatency: 38})
	for l := uint64(0); l < lines; l++ {
		c.Fill(l*lineBytes, c.FullSectorMask(), l%2 == 0, l%3 == 0)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(9*lines+512); got > limit {
		t.Fatalf("default LLC allocated %d B for %d lines (%.2f B/line), want <= %d", got, lines, float64(got)/lines, limit)
	}
	if c.Stats.Evictions != 0 {
		t.Fatalf("%d evictions filling an empty level exactly once", c.Stats.Evictions)
	}
}
