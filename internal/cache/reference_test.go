package cache

import "fmt"

// refCache and refHierarchy are the cache model as it stood before ways were
// packed into one word each: a per-way struct with 64-bit valid and dirty
// maps, a per-level clock that stamps every touch, LRU by smallest stamp, and
// sets carved lazily out of a growing backing slice. They are kept verbatim
// as a test-only oracle: differential_test.go drives them next to Cache and
// Hierarchy and requires identical outcomes, evictions, Stats and memory
// ops, op for op.
//
// Do not "improve" these types: their value is that they stay frozen.
type refLine struct {
	tag      uint64
	valid    uint64
	dirty    uint64
	sectored bool
	lru      uint64
}

type refCache struct {
	cfg      Config
	setOff   []int32
	backing  []refLine
	setMask  uint64
	lineBits uint
	setShift uint
	secBytes int
	hitLat   int
	clock    uint64
	Stats    Stats
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: %s set count %d not a power of two", cfg.Name, nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	setShift := uint(0)
	for 1<<setShift < nSets {
		setShift++
	}
	return &refCache{
		cfg:      cfg,
		setOff:   make([]int32, nSets),
		setMask:  uint64(nSets - 1),
		lineBits: lineBits,
		setShift: setShift,
		secBytes: cfg.LineBytes / cfg.Sectors,
		hitLat:   cfg.HitLatency,
	}
}

func (c *refCache) peek(idx int) []refLine {
	off := c.setOff[idx]
	if off == 0 {
		return nil
	}
	b := int(off - 1)
	return c.backing[b : b+c.cfg.Ways]
}

func (c *refCache) set(idx int) []refLine {
	if s := c.peek(idx); s != nil {
		return s
	}
	w := c.cfg.Ways
	base := len(c.backing)
	if cap(c.backing)-base < w {
		newCap := 4 * cap(c.backing)
		if min := base + w; newCap < min {
			newCap = min
		}
		if newCap < 64*w {
			newCap = 64 * w
		}
		nb := make([]refLine, base, newCap)
		copy(nb, c.backing)
		c.backing = nb
	}
	c.backing = c.backing[:base+w]
	s := c.backing[base : base+w]
	clear(s)
	c.setOff[idx] = int32(base) + 1
	return s
}

func (c *refCache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr >> c.lineBits
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
}

func (c *refCache) sectorOf(addr uint64) int {
	return int(addr&(1<<c.lineBits-1)) / c.secBytes
}

func (c *refCache) sectorMask(addr uint64, size int) uint64 {
	first := c.sectorOf(addr)
	last := c.sectorOf(addr + uint64(size) - 1)
	var m uint64
	for s := first; s <= last; s++ {
		m |= 1 << s
	}
	return m
}

func (c *refCache) Access(addr uint64, size int, write bool) Outcome {
	if size <= 0 || uint64(size) > uint64(c.cfg.LineBytes)-(addr&(1<<c.lineBits-1)) {
		panic(fmt.Sprintf("cache: access [%x,+%d) crosses a line boundary", addr, size))
	}
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	c.clock++
	set := c.peek(setIdx)
	for i := range set {
		ln := &set[i]
		if ln.valid != 0 && ln.tag == tag {
			if ln.valid&mask == mask {
				ln.lru = c.clock
				if write {
					ln.dirty |= mask
				}
				c.Stats.Hits++
				return Hit
			}
			c.Stats.SectorMisses++
			c.Stats.Misses++
			return SectorMiss
		}
	}
	c.Stats.Misses++
	return LineMiss
}

func (c *refCache) Fill(addr uint64, sectors uint64, markDirty, sectored bool) (ev Eviction, evicted bool) {
	setIdx, tag := c.locate(addr)
	c.clock++
	set := c.set(setIdx)
	victim, invalid := 0, -1
	for i := range set {
		ln := &set[i]
		if ln.valid == 0 {
			if invalid < 0 {
				invalid = i
			}
			continue
		}
		if ln.tag == tag {
			ln.valid |= sectors
			if markDirty {
				ln.dirty |= sectors
			}
			ln.sectored = ln.sectored || sectored
			ln.lru = c.clock
			return Eviction{}, false
		}
		if ln.lru < set[victim].lru {
			victim = i
		}
	}
	if invalid >= 0 {
		victim = invalid
	}
	ln := &set[victim]
	if ln.valid != 0 {
		c.Stats.Evictions++
		if ln.dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{
			LineAddr: ((ln.tag<<c.setShift | uint64(setIdx)) << c.lineBits),
			Dirty:    ln.dirty,
			Sectored: ln.sectored,
		}
		evicted = ln.dirty != 0
	}
	*ln = refLine{tag: tag, valid: sectors, lru: c.clock, sectored: sectored}
	if markDirty {
		ln.dirty = sectors
	}
	c.Stats.FillsFromBelow++
	if sectored {
		c.Stats.StridedLineInserts++
	}
	return ev, evicted
}

func (c *refCache) Contains(addr uint64, size int) bool {
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	set := c.peek(setIdx)
	for i := range set {
		ln := &set[i]
		if ln.valid != 0 && ln.tag == tag {
			return ln.valid&mask == mask
		}
	}
	return false
}

func (c *refCache) InvalidateAll() {
	clear(c.setOff)
	c.backing = c.backing[:0]
}

func (c *refCache) FullSectorMask() uint64 {
	return 1<<uint(c.cfg.Sectors) - 1
}

func (c *refCache) lineAddr(addr uint64) uint64 {
	return addr &^ (1<<c.lineBits - 1)
}

func (c *refCache) invalidateLine(addr uint64) {
	setIdx, tag := c.locate(addr)
	set := c.peek(setIdx)
	for i := range set {
		ln := &set[i]
		if ln.valid != 0 && ln.tag == tag {
			*ln = refLine{}
			return
		}
	}
}

type refHierarchy struct {
	levels    []*refCache
	flushSeen map[uint64]bool
	ops       []MemOp
}

func newRefHierarchy(levels ...*refCache) *refHierarchy {
	return &refHierarchy{levels: levels}
}

func (h *refHierarchy) LLC() *refCache { return h.levels[len(h.levels)-1] }

func (h *refHierarchy) Access(addr uint64, size int, write, sectored bool) AccessResult {
	var res AccessResult
	h.ops = h.ops[:0]
	hitAt := 0
	for i, lvl := range h.levels {
		res.Latency += lvl.hitLat
		switch lvl.Access(addr, size, write) {
		case Hit:
			hitAt = i + 1
		case SectorMiss, LineMiss:
			continue
		}
		break
	}
	res.HitLevel = hitAt

	if hitAt == 0 {
		llc := h.LLC()
		var sectors uint64
		if sectored {
			sectors = llc.sectorMask(addr, size)
		} else {
			sectors = llc.FullSectorMask()
		}
		h.ops = append(h.ops, MemOp{Addr: llc.lineAddr(addr), Sectors: sectors, Sectored: sectored})
		for i := len(h.levels) - 1; i >= 0; i-- {
			h.fillLevel(i, addr, sectored, write, size)
		}
	} else {
		for i := hitAt - 2; i >= 0; i-- {
			h.fillLevel(i, addr, sectored, write, size)
		}
	}
	res.MemOps = h.ops
	return res
}

func (h *refHierarchy) fillLevel(i int, addr uint64, sectored, write bool, size int) {
	lvl := h.levels[i]
	var sectors uint64
	if sectored {
		sectors = lvl.sectorMask(addr, size)
	} else {
		sectors = lvl.FullSectorMask()
	}
	h.fillLevelSectors(i, addr, sectors, write, sectored)
}

func (h *refHierarchy) FillLine(addr uint64, sectors uint64, sectored bool) []MemOp {
	h.ops = h.ops[:0]
	for i := len(h.levels) - 1; i >= 0; i-- {
		h.fillLevelSectors(i, addr, sectors, false, sectored)
	}
	return h.ops
}

func (h *refHierarchy) fillLevelSectors(i int, addr uint64, sectors uint64, write, sectored bool) {
	lvl := h.levels[i]
	ev, dirty := lvl.Fill(addr, sectors, write, sectored)
	if !dirty {
		return
	}
	lvl.Stats.WritebacksToBelow++
	if i == len(h.levels)-1 {
		h.ops = append(h.ops, MemOp{Addr: ev.LineAddr, IsWrite: true, Sectors: ev.Dirty, Sectored: ev.Sectored})
		return
	}
	below := h.levels[i+1]
	ev2, dirty2 := below.Fill(ev.LineAddr, ev.Dirty, true, ev.Sectored)
	if dirty2 {
		below.Stats.WritebacksToBelow++
		if i+1 == len(h.levels)-1 {
			h.ops = append(h.ops, MemOp{Addr: ev2.LineAddr, IsWrite: true, Sectors: ev2.Dirty, Sectored: ev2.Sectored})
		} else {
			h.pushDown(i+2, ev2)
		}
	}
}

func (h *refHierarchy) pushDown(i int, ev Eviction) {
	if i >= len(h.levels) {
		h.ops = append(h.ops, MemOp{Addr: ev.LineAddr, IsWrite: true, Sectors: ev.Dirty, Sectored: ev.Sectored})
		return
	}
	ev2, dirty := h.levels[i].Fill(ev.LineAddr, ev.Dirty, true, ev.Sectored)
	if dirty {
		h.levels[i].Stats.WritebacksToBelow++
		h.pushDown(i+1, ev2)
	}
}

func (h *refHierarchy) FlushDirty() []MemOp {
	var ops []MemOp
	for li := len(h.levels) - 1; li >= 0; li-- {
		lvl := h.levels[li]
		for s := range lvl.setOff {
			set := lvl.peek(s)
			for w := range set {
				ln := &set[w]
				if ln.valid != 0 && ln.dirty != 0 {
					addr := (ln.tag<<lvl.setShift | uint64(s)) << lvl.lineBits
					ops = append(ops, MemOp{Addr: addr, IsWrite: true, Sectors: ln.dirty, Sectored: ln.sectored})
					ln.dirty = 0
				}
			}
		}
	}
	if h.flushSeen == nil {
		h.flushSeen = make(map[uint64]bool, len(ops))
	} else {
		clear(h.flushSeen)
	}
	seen := h.flushSeen
	out := ops[:0]
	for _, op := range ops {
		if !seen[op.Addr] {
			seen[op.Addr] = true
			out = append(out, op)
		}
	}
	return out
}

func (h *refHierarchy) InvalidateAll() {
	for _, l := range h.levels {
		l.InvalidateAll()
	}
}
