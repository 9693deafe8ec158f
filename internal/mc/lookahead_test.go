package mc

import (
	"reflect"
	"testing"

	"sam/internal/dram"
)

// lookaheadBanks returns the first n flat banks of the geometry as
// (rank, group, bank) coordinates, rank-major.
func lookaheadBanks(geo dram.Geometry, n int) []Coord {
	var out []Coord
	for r := 0; r < geo.Ranks; r++ {
		for g := 0; g < geo.BankGroups; g++ {
			for b := 0; b < geo.BanksPerGroup; b++ {
				out = append(out, Coord{Rank: r, Group: g, Bank: b})
			}
		}
	}
	return out[:n]
}

// lookaheadRound builds one round of the deep-queue preparation shape:
// reqs requests spread round-robin over banks, arriving one cycle apart
// from base. They are reads of row, except every 11th, which is a write
// of row 0. Writes go last, so those banks end each round open on row 0,
// and while the next round's writes are pending the lookahead must not
// precharge them for the reads. Every
// 9th arrives 200 cycles early, so the queue loses arrival order; every
// 13th arrives 5000 cycles late, so some bank lists are headed by an
// entry that has not arrived and the lookahead must walk past it to the
// bank's first arrived entry.
func lookaheadRound(m *AddrMap, banks []Coord, row int, base dram.Cycle, reqs int, id *uint64) []Request {
	out := make([]Request, 0, reqs)
	for k := 0; k < reqs; k++ {
		co := banks[k%len(banks)]
		co.Row = row
		co.Col = k / len(banks)
		isWrite := k%11 == 0
		if isWrite {
			co.Row = 0
		}
		arrival := base + dram.Cycle(k)
		switch {
		case k%13 == 0:
			arrival += 5000
		case k%9 == 0:
			arrival -= 200
		}
		*id++
		out = append(out, Request{ID: *id, Addr: m.Encode(co), IsWrite: isWrite, Arrival: arrival})
	}
	return out
}

// prepareShape classifies the read queue's occupied banks that are open
// on one row while an arrived read wants another: need counts those the
// lookahead would precharge and re-activate (no arrived request wants the
// open row), vetoed those it must leave alone because only an arrived
// write still wants it.
func prepareShape(c *Controller) (need, vetoed int) {
	for _, bank := range c.readQ.occBanks {
		row, open := c.dev.OpenRowAt(int(bank))
		if !open {
			continue
		}
		var other, wanted [2]bool // indexed by queue: 0 read, 1 write
		for k, q := range [2]*reqQueue{&c.readQ, &c.writeQ} {
			for i := q.bankHead[bank]; i != nilSlot; i = q.slots[i].bankNext {
				if e := &q.slots[i]; e.req.Arrival <= c.now {
					other[k] = other[k] || e.co.Row != row
					wanted[k] = wanted[k] || e.co.Row == row
				}
			}
		}
		switch {
		case !other[0] || wanted[0]:
		case wanted[1]:
			vetoed++
		default:
			need++
		}
	}
	return need, vetoed
}

// headNotArrived reports whether some occupied read bank's first entry has
// not arrived while a later entry of the same bank has.
func headNotArrived(c *Controller) bool {
	q := &c.readQ
	for _, bank := range q.occBanks {
		h := q.bankHead[bank]
		if q.slots[h].req.Arrival <= c.now {
			continue
		}
		for i := q.slots[h].bankNext; i != nilSlot; i = q.slots[i].bankNext {
			if q.slots[i].req.Arrival <= c.now {
				return true
			}
		}
	}
	return false
}

// TestPrepareAheadDeepQueueDifferential drives the bank-indexed lookahead
// and the frozen reference scheduler through deep queues in which a dozen
// or more banks each need a PRE and an ACT at once — more than
// prepareLookahead, so the cap decides which banks are prepared — with
// pending writes vetoing some precharges and out-of-order and future
// arrivals, so the unsorted bank-list walk runs.
// The completion streams, Stats, device stats, clocks and audited command
// streams must be identical.
func TestPrepareAheadDeepQueueDifferential(t *testing.T) {
	devCfg := dram.DDR4_2400()
	devA, devB := dram.NewDevice(devCfg), dram.NewDevice(devCfg)
	cNew := NewController(devA, DefaultConfig())
	cRef := newReferenceController(devB, DefaultConfig())
	cNew.Audit, cRef.Audit = dram.NewAuditor(devCfg), dram.NewAuditor(devCfg)
	banks := lookaheadBanks(devCfg.Geometry, 24)

	var id uint64
	maxNeed, vetoed, unsortedWalk := 0, false, false
	service := func() bool {
		need, v := prepareShape(cNew)
		maxNeed = max(maxNeed, need)
		vetoed = vetoed || v > 0
		if !cNew.readQ.sorted && headNotArrived(cNew) {
			unsortedWalk = true
		}
		return serviceBoth(t, 0, cNew, cRef)
	}
	for round := 0; round < 6; round++ {
		base := cNew.Now() + 800
		for _, r := range lookaheadRound(cNew.AddrMap(), banks, 10+round, base, 64, &id) {
			for !cNew.CanAccept(r.IsWrite) {
				service()
			}
			cNew.Enqueue(r)
			cRef.Enqueue(r)
		}
		for service() {
		}
	}

	if maxNeed < 12 {
		t.Fatalf("at most %d banks needed PRE+ACT at once, want >= 12 (cap %d)", maxNeed, prepareLookahead)
	}
	if !vetoed {
		t.Fatal("no pending write ever vetoed a precharge")
	}
	if !unsortedWalk {
		t.Fatal("the unsorted bank-list walk never ran")
	}
	if cNew.Stats != cRef.Stats {
		t.Fatalf("Stats diverged:\n new: %+v\n ref: %+v", cNew.Stats, cRef.Stats)
	}
	if !reflect.DeepEqual(devA.Stats, devB.Stats) {
		t.Fatalf("device stats diverged:\n new: %+v\n ref: %+v", devA.Stats, devB.Stats)
	}
	if cNew.Now() != cRef.Now() {
		t.Fatalf("clocks diverged: new=%d ref=%d", cNew.Now(), cRef.Now())
	}
	// Ok sorts each history into time order, so call it on both sides
	// before comparing them.
	for _, a := range []*dram.Auditor{cNew.Audit, cRef.Audit} {
		if !a.Ok() {
			t.Fatalf("protocol violation: %s", a.Violations[0])
		}
	}
	if !reflect.DeepEqual(cNew.Audit.History(), cRef.Audit.History()) {
		t.Fatal("audited command streams diverged")
	}
	if got := cNew.Stats.Reads + cNew.Stats.Writes; got != id {
		t.Fatalf("serviced %d of %d requests", got, id)
	}
}

// TestServiceOneZeroAllocsManyPrepareCandidates pins the lookahead's
// candidate selection at zero allocations while more banks need a PRE and
// an ACT than prepareLookahead admits.
func TestServiceOneZeroAllocsManyPrepareCandidates(t *testing.T) {
	devCfg := dram.DDR4_2400()
	c := NewController(dram.NewDevice(devCfg), DefaultConfig())
	banks := lookaheadBanks(devCfg.Geometry, 20)
	row := 0
	// Each round is a read per bank on the next row, all arrived: after the
	// previous round left every bank open, the first service of a round
	// finds 19 banks to prepare.
	enqueueRound := func() {
		row = row%64 + 1
		for _, co := range banks {
			co.Row = row
			c.Enqueue(Request{Addr: c.AddrMap().Encode(co), Arrival: c.Now()})
		}
	}
	enqueueRound()
	c.Drain()
	enqueueRound()
	if n, _ := prepareShape(c); n <= prepareLookahead+1 {
		t.Fatalf("%d banks need preparation, want > %d", n, prepareLookahead+1)
	}
	c.Drain()
	round := func() {
		enqueueRound()
		for {
			if _, ok := c.ServiceOne(); !ok {
				return
			}
		}
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("deep preparation round: %.2f allocs/op, want 0", allocs)
	}
}
