package fault

import (
	"reflect"
	"testing"

	"sam/internal/dram"
	"sam/internal/ecc"
)

func rdCmd(rank int, col int) dram.Command {
	return dram.Command{Kind: dram.CmdRD, Rank: rank, Col: col}
}

// TestInjectorDeterministic pins the replay contract: two injectors with the
// same config, fed the same command sequence, produce identical verdicts and
// bit-identical counters — the property the campaign's workers=1 vs
// workers=8 equivalence rests on.
func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{
		Seed:      42,
		Rate:      0.3,
		DeadChips: []ChipFault{{Rank: 0, Chip: 5}},
		StuckDQs:  []StuckDQ{{Rank: 1, Chip: 9, DQ: 2, Value: 1}},
	}
	a := New(cfg, ecc.SchemeSSC, true)
	b := New(cfg, ecc.SchemeSSC, true)
	for i := 0; i < 2000; i++ {
		cmd := rdCmd(i%2, i)
		va := a.DataBurst(cmd, dram.Cycle(i))
		vb := b.DataBurst(cmd, dram.Cycle(i))
		if va != vb {
			t.Fatalf("burst %d: verdicts diverge (%v vs %v)", i, va, vb)
		}
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("counters diverge:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.Counters.Bursts != 2000 || a.Counters.Injected == 0 {
		t.Fatalf("expected injections over 2000 bursts: %+v", a.Counters)
	}
	// A different seed must move the fault sites.
	cfg.Seed = 43
	c := New(cfg, ecc.SchemeSSC, true)
	for i := 0; i < 2000; i++ {
		c.DataBurst(rdCmd(i%2, i), dram.Cycle(i))
	}
	if reflect.DeepEqual(a.Counters, c.Counters) {
		t.Fatal("different seeds produced identical counters")
	}
}

// TestInjectorSingleDeadChip: one dead chip is chipkill's home turf — every
// affected burst must come back corrected, none uncorrectable, none silent,
// and the attribution must name the dead chip on every hit.
func TestInjectorSingleDeadChip(t *testing.T) {
	for _, scheme := range []ecc.Scheme{ecc.SchemeSSC, ecc.SchemeSSCVariant, ecc.SchemeSSCDSD} {
		in := New(Config{Seed: 7, DeadChips: []ChipFault{{Rank: -1, Chip: 3}}}, scheme, true)
		for i := 0; i < 500; i++ {
			if v := in.DataBurst(rdCmd(0, i), dram.Cycle(i)); v != dram.BurstCorrected {
				t.Fatalf("%v burst %d: verdict %v, want corrected", scheme, i, v)
			}
		}
		c := in.Counters
		if c.CorrectedBursts != 500 || c.DUEs != 0 || c.SilentCorruptions != 0 {
			t.Fatalf("%v: %+v", scheme, c)
		}
		for ch, n := range c.PerChip {
			if ch == 3 && n != 500 {
				t.Fatalf("%v: chip 3 attributed %d, want 500", scheme, n)
			}
			if ch != 3 && n != 0 {
				t.Fatalf("%v: chip %d attributed %d, want 0", scheme, ch, n)
			}
		}
	}
}

// TestInjectorTwoChipMapDUE: a dead chip plus a stuck DQ on a different chip
// is outside every scheme's correction power. Under SSC-DSD (distance 5)
// detection of two faulty chips is guaranteed, so every burst where both
// faults bite must be a DUE — never a silent corruption. Persistence also
// means retries can't help, which is what drives the controller's poison
// path.
func TestInjectorTwoChipMapDUE(t *testing.T) {
	in := New(Config{
		Seed:      11,
		DeadChips: []ChipFault{{Rank: -1, Chip: 3}},
		StuckDQs:  []StuckDQ{{Rank: -1, Chip: 20, DQ: 1, Value: 1}},
	}, ecc.SchemeSSCDSD, true)
	for i := 0; i < 500; i++ {
		in.DataBurst(rdCmd(0, i), dram.Cycle(i))
	}
	c := in.Counters
	if c.SilentCorruptions != 0 {
		t.Fatalf("silent corruptions inside the SSC-DSD guarantee: %+v", c)
	}
	if c.DUEs == 0 {
		t.Fatalf("two-chip persistent map never produced a DUE: %+v", c)
	}
	// The stuck DQ sometimes matches the data (half its bits on average),
	// leaving only the dead chip — those bursts are corrected, not DUEs.
	if c.CorrectedBursts+c.DUEs != c.Injected {
		t.Fatalf("accounting identity broken: %+v", c)
	}
}

// TestInjectorTransientRate checks the drawn-event rate lands near the
// configured probability and that single-site transients never escalate
// beyond corrected (each event touches exactly one chip).
func TestInjectorTransientRate(t *testing.T) {
	const n = 20000
	in := New(Config{Seed: 3, Rate: 0.1}, ecc.SchemeSSC, true)
	for i := 0; i < n; i++ {
		in.DataBurst(rdCmd(0, i), dram.Cycle(i))
	}
	c := in.Counters
	events := c.TransientBits + c.TransientChips + c.TransientCorrelated
	if events < n/10-300 || events > n/10+300 {
		t.Fatalf("drew %d transient events over %d bursts at rate 0.1", events, n)
	}
	if c.DUEs != 0 || c.SilentCorruptions != 0 {
		t.Fatalf("single-chip transients escalated: %+v", c)
	}
	if c.CorrectedBursts != c.Injected {
		t.Fatalf("accounting identity broken: %+v", c)
	}
}

// TestInjectorNoECC: on a design that cannot keep codewords (plain GS-DRAM)
// every biting fault is a silent corruption — there is nothing to detect it.
func TestInjectorNoECC(t *testing.T) {
	in := New(Config{Seed: 5, DeadChips: []ChipFault{{Rank: -1, Chip: 2}}}, ecc.SchemeSSC, false)
	for i := 0; i < 100; i++ {
		if v := in.DataBurst(rdCmd(0, i), dram.Cycle(i)); v != dram.BurstOK {
			t.Fatalf("no-ECC verdict %v, want ok (silent)", v)
		}
	}
	c := in.Counters
	if c.SilentCorruptions != 100 || c.CorrectedBursts != 0 || c.DUEs != 0 {
		t.Fatalf("no-ECC accounting: %+v", c)
	}
}

// TestInjectorRankScoping: a rank-0 fault must not touch rank-1 bursts, but
// a ganged burst drives all ranks and sees every rank's faults.
func TestInjectorRankScoping(t *testing.T) {
	cfg := Config{Seed: 9, DeadChips: []ChipFault{{Rank: 0, Chip: 4}}}
	in := New(cfg, ecc.SchemeSSC, true)
	for i := 0; i < 200; i++ {
		if v := in.DataBurst(rdCmd(1, i), dram.Cycle(i)); v != dram.BurstOK {
			t.Fatalf("rank-1 burst saw rank-0 fault: %v", v)
		}
	}
	gang := dram.Command{Kind: dram.CmdRD, Rank: 1, GangRanks: true}
	if v := in.DataBurst(gang, 0); v != dram.BurstCorrected {
		t.Fatalf("ganged burst verdict %v, want corrected", v)
	}
}

// TestConfigValidate covers the sanity checks.
func TestConfigValidate(t *testing.T) {
	good := []Config{{}, {Rate: 1}, {Rate: 0.5, MaxRetries: 3}, {StuckDQs: []StuckDQ{{Value: 1}}}}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{{Rate: -0.1}, {Rate: 1.5}, {MaxRetries: -1},
		{BitWeight: -1}, {StuckDQs: []StuckDQ{{Value: 2}}}}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if (Config{}).Active() {
		t.Error("zero config reports active")
	}
	if !(Config{Rate: 0.1}).Active() || !(Config{DeadChips: []ChipFault{{}}}).Active() {
		t.Error("active config reports inactive")
	}
}

// TestInjectorDataBurstZeroAllocs pins a warm injector's per-burst path at
// zero allocations: transient draws at the samd-mix rate plus a dead chip,
// so every burst also runs the correcting decode.
func TestInjectorDataBurstZeroAllocs(t *testing.T) {
	for _, scheme := range []ecc.Scheme{ecc.SchemeSSC, ecc.SchemeSSCVariant, ecc.SchemeSSCDSD} {
		in := New(Config{Seed: 13, Rate: 1e-3, DeadChips: []ChipFault{{Rank: -1, Chip: 6}}}, scheme, true)
		i := 0
		burst := func() {
			in.DataBurst(rdCmd(0, i), dram.Cycle(i))
			i++
		}
		burst()
		if n := testing.AllocsPerRun(500, burst); n != 0 {
			t.Errorf("%v: DataBurst allocates %.1f/op, want 0", scheme, n)
		}
		if in.Counters.CorrectedBursts == 0 {
			t.Fatalf("%v: the dead chip was never corrected: %+v", scheme, in.Counters)
		}
	}
}

// BenchmarkInjectorDataBurst times one adjudicated burst per scheme at the
// transient rate samd-mix's faulted jobs run (1e-3), plus the no-ECC path.
func BenchmarkInjectorDataBurst(b *testing.B) {
	cases := []struct {
		name   string
		scheme ecc.Scheme
		hasECC bool
	}{
		{"SSC", ecc.SchemeSSC, true},
		{"SSC-variant", ecc.SchemeSSCVariant, true},
		{"SSC-DSD", ecc.SchemeSSCDSD, true},
		{"no-ECC", ecc.SchemeSSC, false},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			in := New(Config{Seed: 17, Rate: 1e-3}, c.scheme, c.hasECC)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.DataBurst(rdCmd(0, i), dram.Cycle(i))
			}
		})
	}
}
