package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sam/internal/core"
	"sam/internal/design"
)

func testShell(t *testing.T) (*shell, *bytes.Buffer) {
	t.Helper()
	sh := newShell(design.SAMEn, core.Workload{TaRecords: 256, TbRecords: 512, Seed: 1})
	var buf bytes.Buffer
	sh.out.Reset(&buf)
	return sh, &buf
}

func TestShellQuery(t *testing.T) {
	sh, buf := testShell(t)
	sh.run("SELECT SUM(f9) FROM Tb WHERE f10 > 2")
	out := buf.String()
	if !strings.Contains(out, "rows ") || !strings.Contains(out, "cycles") {
		t.Fatalf("query output: %q", out)
	}
	if !strings.Contains(out, "[SAM-en]") {
		t.Fatalf("design tag missing: %q", out)
	}
}

func TestShellDesignSwitch(t *testing.T) {
	sh, buf := testShell(t)
	sh.run(`\design RC-NVM-wd`)
	if sh.kind != design.RCNVMWd {
		t.Fatalf("design not switched: %v", sh.kind)
	}
	buf.Reset()
	sh.run(`\design bogus`)
	if !strings.Contains(buf.String(), "unknown design") {
		t.Fatalf("bad design accepted: %q", buf.String())
	}
}

func TestShellCompare(t *testing.T) {
	sh, buf := testShell(t)
	sh.run(`\compare SELECT SUM(f9) FROM Tb WHERE f10 > 2`)
	out := buf.String()
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "baseline") {
		t.Fatalf("compare output: %q", out)
	}
}

func TestShellBench(t *testing.T) {
	sh, buf := testShell(t)
	sh.run(`\bench Q4`)
	out := buf.String()
	if !strings.Contains(out, "SELECT SUM(f9) FROM Tb") {
		t.Fatalf("bench output: %q", out)
	}
	buf.Reset()
	sh.run(`\bench nope`)
	if !strings.Contains(buf.String(), "unknown benchmark") {
		t.Fatal("bad bench name accepted")
	}
}

func TestShellMisc(t *testing.T) {
	sh, buf := testShell(t)
	sh.run(`\help`)
	if !strings.Contains(buf.String(), "compare") {
		t.Fatal("help output")
	}
	buf.Reset()
	sh.run(`\tables`)
	if !strings.Contains(buf.String(), "Ta: 256 records") {
		t.Fatalf("tables output: %q", buf.String())
	}
	buf.Reset()
	sh.run(`\wat`)
	if !strings.Contains(buf.String(), "unknown command") {
		t.Fatal("unknown command not reported")
	}
	buf.Reset()
	sh.run("")
	sh.run("-- a comment")
	if buf.String() != "" {
		t.Fatalf("blank/comment lines produced output: %q", buf.String())
	}
	buf.Reset()
	sh.run("SELECT nonsense")
	if !strings.Contains(buf.String(), "error:") {
		t.Fatal("bad SQL not reported")
	}
}

func TestShellWarmSystemsCached(t *testing.T) {
	sh, _ := testShell(t)
	a := sh.system(design.SAMEn)
	b := sh.system(design.SAMEn)
	if a != b {
		t.Fatal("system not cached per design")
	}
	if sh.system(design.Baseline) == a {
		t.Fatal("designs share a system")
	}
}

func TestKindByName(t *testing.T) {
	if k, ok := kindByName("sam-en"); !ok || k != design.SAMEn {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := kindByName("nope"); ok {
		t.Fatal("bogus design resolved")
	}
}

// TestShellBenchMatchesRunOne pins that \bench runs a benchmark as defined,
// like samsim -bench: on a cold system, so a repeat reports the same cost,
// with the Qs full-record-scan rule (SAM-en Qs1) and the ideal design's
// column store for Q-class queries (ideal Q3).
func TestShellBenchMatchesRunOne(t *testing.T) {
	w := core.Workload{TaRecords: 512, TbRecords: 2048, Seed: 0xDB}
	for _, c := range []struct {
		kind  design.Kind
		query string
	}{{design.SAMEn, "Qs1"}, {design.Ideal, "Q3"}} {
		q, ok := core.BenchQueryByName(c.query)
		if !ok {
			t.Fatalf("no benchmark query %s", c.query)
		}
		want, err := core.RunOne(c.kind, design.Options{}, w, q)
		if err != nil {
			t.Fatal(err)
		}
		sh := newShell(c.kind, w)
		var buf bytes.Buffer
		sh.out.Reset(&buf)
		sh.run(`\bench ` + c.query)
		sh.run(`\bench ` + c.query)
		line := fmt.Sprintf("\n%d cycles, %d requests", want.Stats.Cycles, want.Stats.MemRequests)
		if n := strings.Count(buf.String(), line); n != 2 {
			t.Errorf("%v \\bench %s: %d of 2 runs report %q; output:\n%s", c.kind, c.query, n, line, buf.String())
		}
	}
}
