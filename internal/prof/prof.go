// Package prof wraps runtime/pprof for the command-line tools: one call
// starts CPU profiling, and the returned stop function finishes the CPU
// profile and writes a heap profile. Either path may be empty to skip
// that profile. RegisterFlags gives every command the same
// -cpuprofile/-memprofile pair.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// RegisterFlags adds -cpuprofile and -memprofile to fs and returns the
// function that, once fs is parsed, starts the profiles they name.
func RegisterFlags(fs *flag.FlagSet) func() (stop func() error, err error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile to this file")
	mem := fs.String("memprofile", "", "write a heap profile to this file")
	return func() (func() error, error) { return Start(*cpu, *mem) }
}

// Start begins profiling. cpuPath, when non-empty, receives a CPU profile
// covering the time until stop is called; memPath, when non-empty, receives
// a heap profile taken at stop time (after a GC, so it reflects live
// objects rather than garbage). The returned stop function is idempotent:
// the first call does the work (and its error is remembered), later calls
// return that same result without touching the profiles again — so a
// command may both defer it and call it on an early-exit path. Even when
// the heap-profile write fails, the first call has already stopped and
// closed the CPU profile, leaving the process clean for a fresh Start.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	var once sync.Once
	var stopErr error
	return func() error {
		once.Do(func() { stopErr = finish(cpuFile, memPath) })
		return stopErr
	}, nil
}

// finish stops the CPU profile (if one is running) and writes the heap
// profile. The CPU half always runs to completion first, so a heap-write
// failure never leaves the runtime's CPU profiler started.
func finish(cpuFile *os.File, memPath string) error {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return fmt.Errorf("prof: %w", err)
		}
	}
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("prof: %w", err)
		}
		defer f.Close()
		runtime.GC() // materialize live-object statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("prof: write heap profile: %w", err)
		}
	}
	return nil
}
