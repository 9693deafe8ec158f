package prof

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestStopIdempotent pins the stop contract: the first call does the work,
// every later call returns the same result without re-running it (a second
// pass would double-stop the CPU profiler and rewrite the heap profile).
func TestStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	st, err := os.Stat(mem)
	if err != nil {
		t.Fatalf("heap profile not written: %v", err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile missing or empty: %v", err)
	}
	// Overwrite the heap profile; a second stop must NOT rewrite it.
	if err := os.WriteFile(mem, []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop returned %v, want the first call's nil", err)
	}
	after, err := os.Stat(mem)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != int64(len("sentinel")) {
		t.Fatalf("second stop rewrote the heap profile (size %d, was sentinel %d from first stop size %d)",
			after.Size(), len("sentinel"), st.Size())
	}
}

// TestStopCPUOkMemFails pins the partial-failure path: with a valid CPU
// path but an uncreatable heap path, stop returns the heap error — once,
// with later calls repeating the remembered error — and still finishes
// the CPU profile, so a fresh Start succeeds immediately afterwards.
func TestStopCPUOkMemFails(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "does-not-exist", "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	first := stop()
	if first == nil {
		t.Fatal("stop succeeded despite uncreatable heap-profile path")
	}
	if second := stop(); second != first {
		t.Fatalf("second stop returned %v, want the remembered first error %v", second, first)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not finished despite heap failure: %v", err)
	}
	// The CPU profiler must be stopped: starting again would panic the
	// runtime ("cpu profiling already in use") via error otherwise.
	stop2, err := Start(filepath.Join(dir, "cpu2.prof"), "")
	if err != nil {
		t.Fatalf("fresh Start after failed stop: %v", err)
	}
	if err := stop2(); err != nil {
		t.Fatalf("fresh stop: %v", err)
	}
}

// TestStartNoop covers the both-paths-empty case: no profiler started, a
// no-op stop that stays a no-op on repeat calls.
func TestStartNoop(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := stop(); err != nil {
			t.Fatalf("stop #%d: %v", i+1, err)
		}
	}
}

// TestRegisterFlags pins the shared flag pair: names and help text, and
// that the returned start function writes the profiles the flags name.
func TestRegisterFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "c.pprof"), filepath.Join(dir, "m.pprof")
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	start := RegisterFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty: %v", p, err)
		}
	}
	for name, usage := range map[string]string{
		"cpuprofile": "write a CPU profile to this file",
		"memprofile": "write a heap profile to this file",
	} {
		if fl := fs.Lookup(name); fl == nil || fl.Usage != usage || fl.DefValue != "" {
			t.Fatalf("flag -%s = %+v", name, fl)
		}
	}
}
