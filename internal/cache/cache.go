// Package cache implements the sector-cache hierarchy of Section 5.1: set
// associative write-back caches whose lines are divided into up to 8
// sectors with independent valid and dirty bits, so SAM's strided data (one
// chipkill codeword's worth per line) can live in the hierarchy without
// dragging whole cachelines around.
//
// The caches are timing/traffic models: they track tags and sector state,
// not payload bytes (the functional data path lives in dram.SparseMem and is
// validated separately). Each way is one packed word (sector maps, strided
// flag and tag), and each set keeps its exact LRU order as one word of 4-bit
// way indices, so a level is 8 B per line plus 8 B per set, at most 16 ways
// and 8 sectors, and tags of at most 47 bits.
package cache

import (
	"fmt"
	"math/bits"
)

// Config sizes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	Sectors    int // sectors per line; 1 disables sectoring
	HitLatency int // CPU cycles for a hit at this level
}

// Validate checks the level geometry.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 || c.Sectors <= 0:
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by line*ways", c.SizeBytes)
	case c.LineBytes%c.Sectors != 0:
		return fmt.Errorf("cache: %d sectors do not divide %dB line", c.Sectors, c.LineBytes)
	case c.Sectors > maxSectors:
		return fmt.Errorf("cache: sector bitmap limited to %d, got %d", maxSectors, c.Sectors)
	case c.Ways > maxWays:
		return fmt.Errorf("cache: recency order limited to %d ways, got %d", maxWays, c.Ways)
	}
	return nil
}

// Stats counts per-level activity.
type Stats struct {
	Hits, Misses       uint64
	SectorHits         uint64 // hit on line, fill avoided by sector validity
	SectorMisses       uint64 // line present but sector invalid
	Evictions          uint64
	DirtyEvictions     uint64
	FillsFromBelow     uint64
	WritebacksToBelow  uint64
	StridedLineInserts uint64
}

// Way words. Each way is one uint64: valid sector bits 0–7, dirty sector
// bits 8–15, the strided flag in bit 16 and the tag above. A zero word is an
// invalid way; Fill never stores one, since it rejects an empty sector map.
const (
	maxSectors = 8
	maxWays    = 16 // a set's recency order holds 16 4-bit way indices
	dirtyShift = 8
	sectorBits = 1<<maxSectors - 1
	stridedBit = 1 << 16 // filled by a strided access (affects writeback shape)
	tagShift   = 17
	maxTagBits = 64 - tagShift
	nibbles    = 0x1111111111111111
)

// Cache is one level. Set s's ways are ways[s*Ways:(s+1)*Ways], and
// order[s] lists them by recency as 4-bit way indices, least recently
// touched in the low nibble. A level therefore costs 8 B per line plus 8 B
// per set (and a bit per 64 sets for flushDirty), allocated once by New.
type Cache struct {
	cfg      Config
	ways     []uint64
	order    []uint64
	dirtyAt  []uint64 // bit g: sets 64g..64g+63 may hold a dirty way
	setMask  uint64
	lineBits uint
	setShift uint
	mruShift uint // bit offset of the most recently used nibble
	secBytes int
	hitLat   int
	Stats    Stats
}

// New builds a level; it panics on invalid configuration.
func New(cfg Config) *Cache {
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
	// Any permutation is a valid starting order: a way's rank only matters
	// once every way of its set is valid, and by then each has been touched.
	var identity uint64
	for w := 0; w < cfg.Ways; w++ {
		identity |= uint64(w) << (4 * w)
	}
	order := make([]uint64, nSets)
	for i := range order {
		order[i] = identity
	}
	return &Cache{
		cfg:      cfg,
		ways:     make([]uint64, nSets*cfg.Ways),
		order:    order,
		dirtyAt:  make([]uint64, (nSets+64*64-1)/(64*64)),
		setMask:  uint64(nSets - 1),
		lineBits: lineBits,
		setShift: setShift,
		mruShift: 4 * uint(cfg.Ways-1),
		secBytes: cfg.LineBytes / cfg.Sectors,
		hitLat:   cfg.HitLatency,
	}
}

// set returns set idx's ways.
func (c *Cache) set(idx int) []uint64 {
	base := idx * c.cfg.Ways
	return c.ways[base : base+c.cfg.Ways]
}

// touch moves way w of set idx to the most recently used end of its order.
func (c *Cache) touch(idx, w int) {
	o := c.order[idx]
	// x has a zero nibble exactly where o holds w; t's lowest set bit marks
	// the first such nibble (borrows only create false hits above it).
	x := o ^ uint64(w)*nibbles
	t := (x - nibbles) &^ x & (nibbles << 3)
	older := uint64(1)<<(bits.TrailingZeros64(t)&^3) - 1
	c.order[idx] = o&older | o>>4&^older | uint64(w)<<c.mruShift
}

// noteDirty records that set idx may hold a dirty way.
func (c *Cache) noteDirty(idx int) { c.dirtyAt[idx>>12] |= 1 << (idx >> 6 & 63) }

// flushDirty appends a writeback for every dirty way to ops and cleans it.
// It walks sets in index order, so the op sequence — which feeds the memory
// system — depends only on the cache contents, and skips each 64-set group
// no write has reached since the last flush.
func (c *Cache) flushDirty(ops []MemOp) []MemOp {
	for gw, groups := range c.dirtyAt {
		c.dirtyAt[gw] = 0
		for ; groups != 0; groups &= groups - 1 {
			first := (gw<<6 | bits.TrailingZeros64(groups)) << 6 * c.cfg.Ways
			ways := c.ways[first:min(first+64*c.cfg.Ways, len(c.ways))]
			for i, w := range ways {
				if dirty := w >> dirtyShift & sectorBits; dirty != 0 {
					ops = append(ops, MemOp{Addr: c.wayAddr((first+i)/c.cfg.Ways, w), IsWrite: true, Sectors: dirty, Sectored: w&stridedBit != 0})
					ways[i] = w &^ (sectorBits << dirtyShift)
				}
			}
		}
	}
	return ops
}

// Config returns the level configuration.
func (c *Cache) Config() Config { return c.cfg }

// SectorBytes returns the sector granularity.
func (c *Cache) SectorBytes() int { return c.secBytes }

func (c *Cache) locate(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr >> c.lineBits
	tag = lineAddr >> c.setShift
	if tag>>maxTagBits != 0 {
		panic("cache: tag wider than 47 bits")
	}
	return int(lineAddr & c.setMask), tag
}

// wayAddr rebuilds the line address of way word w in set idx.
func (c *Cache) wayAddr(idx int, w uint64) uint64 {
	return (w>>tagShift<<c.setShift | uint64(idx)) << c.lineBits
}

func (c *Cache) sectorOf(addr uint64) int {
	return int(addr&(1<<c.lineBits-1)) / c.secBytes
}

// sectorMask returns the bitmap of sectors an access [addr, addr+size)
// touches within its line.
func (c *Cache) sectorMask(addr uint64, size int) uint64 {
	first := c.sectorOf(addr)
	last := c.sectorOf(addr + uint64(size) - 1)
	return 1<<(last+1) - 1<<first
}

// Outcome classifies one access at this level.
type Outcome int

// Access outcomes.
const (
	Hit Outcome = iota
	SectorMiss
	LineMiss
)

// Eviction describes a line pushed out to make room.
type Eviction struct {
	LineAddr uint64
	Dirty    uint64 // dirty sector bitmap (0 = clean eviction)
	Sectored bool
}

// Access probes the level for [addr, addr+size). On a line miss the caller
// must Fill before the data is usable; on a sector miss the line exists but
// the touched sectors are invalid. Write hits mark sectors dirty.
func (c *Cache) Access(addr uint64, size int, write bool) Outcome {
	if size <= 0 || uint64(size) > uint64(c.cfg.LineBytes)-(addr&(1<<c.lineBits-1)) {
		panic(fmt.Sprintf("cache: access [%x,+%d) crosses a line boundary", addr, size))
	}
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	set := c.set(setIdx)
	for i, w := range set {
		if w == 0 || w>>tagShift != tag {
			continue
		}
		if w&mask != mask {
			c.Stats.SectorMisses++
			c.Stats.Misses++
			return SectorMiss
		}
		if write {
			set[i] = w | mask<<dirtyShift
			c.noteDirty(setIdx)
		}
		c.touch(setIdx, i)
		c.Stats.Hits++
		return Hit
	}
	c.Stats.Misses++
	return LineMiss
}

// Fill installs (or widens) the line containing addr with the given sector
// bitmap, returning an eviction if a victim was displaced. markDirty sets
// the filled sectors dirty (write-allocate); sectored tags the line as
// strided-filled. It panics on an empty bitmap or one naming sectors the
// line does not have.
func (c *Cache) Fill(addr uint64, sectors uint64, markDirty, sectored bool) (ev Eviction, evicted bool) {
	if sectors == 0 || sectors&^c.FullSectorMask() != 0 {
		panic(fmt.Sprintf("cache: %s fill of sectors %#x in a %d-sector line", c.cfg.Name, sectors, c.cfg.Sectors))
	}
	setIdx, tag := c.locate(addr)
	w := tag<<tagShift | sectors
	if markDirty {
		w |= sectors << dirtyShift
		c.noteDirty(setIdx)
	}
	if sectored {
		w |= stridedBit
	}
	set := c.set(setIdx)
	// One pass: widen an existing line if present, otherwise remember the
	// first invalid way as the victim.
	victim := -1
	for i, old := range set {
		if old == 0 {
			if victim < 0 {
				victim = i
			}
			continue
		}
		if old>>tagShift == tag {
			// Same tag, so OR-ing widens valid, dirty and strided at once.
			set[i] = old | w
			c.touch(setIdx, i)
			return Eviction{}, false
		}
	}
	if victim < 0 {
		victim = int(c.order[setIdx] & 0xf)
		old := set[victim]
		dirty := old >> dirtyShift & sectorBits
		c.Stats.Evictions++
		if dirty != 0 {
			c.Stats.DirtyEvictions++
		}
		ev = Eviction{LineAddr: c.wayAddr(setIdx, old), Dirty: dirty, Sectored: old&stridedBit != 0}
		evicted = dirty != 0
	}
	set[victim] = w
	c.touch(setIdx, victim)
	c.Stats.FillsFromBelow++
	if sectored {
		c.Stats.StridedLineInserts++
	}
	return ev, evicted
}

// Contains reports whether the full sector mask for [addr,addr+size) is
// resident and valid.
func (c *Cache) Contains(addr uint64, size int) bool {
	setIdx, tag := c.locate(addr)
	mask := c.sectorMask(addr, size)
	for _, w := range c.set(setIdx) {
		if w != 0 && w>>tagShift == tag {
			return w&mask == mask
		}
	}
	return false
}

// InvalidateAll clears the cache (used between experiment phases).
func (c *Cache) InvalidateAll() {
	clear(c.ways)
}

// FullSectorMask returns the bitmap covering every sector of a line.
func (c *Cache) FullSectorMask() uint64 {
	return 1<<uint(c.cfg.Sectors) - 1
}
