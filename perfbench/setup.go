package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// setupReps is how many set-up probes a run starts; setup_s is their
// median, which keeps one-off page faults and scheduler hiccups out of it.
const setupReps = 15

// setupProbeEnv, when set in a process's environment, makes the benchmark
// binary (or its test binary) a set-up probe: it runs the workload named in
// the variable up to its first timed operation, writes probeReady to
// standard output, releases what the set-up holds and exits.
const setupProbeEnv = "PERFBENCH_SETUP_PROBE"

const probeReady = "ready"

// measureSetup times set-up as a user waits for it: from the start of a
// fresh benchmark process to its first timed operation (runtime
// and package initialisation, input generation and, on samd-mix, daemon
// start and listener bind). Process start cannot be repeated inside one
// process, so each repetition is a child process; the result is the median
// in seconds.
func measureSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	spec := fmt.Sprintf("%s %d %t %d", cfg.Workload, cfg.Seed, cfg.Short, cfg.Workers)
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupProbeEnv+"="+spec)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		if rerr != nil || line != probeReady+"\n" {
			return 0, fmt.Errorf("set-up probe: read %q: %v", line, rerr)
		}
		secs = append(secs, d.Seconds())
	}
	return median(secs), nil
}

// runSetupProbe is a probe process's whole life; spec is the value of
// setupProbeEnv. It returns the exit code.
func runSetupProbe(spec string) int {
	var cfg config
	if _, err := fmt.Sscan(spec, &cfg.Workload, &cfg.Seed, &cfg.Short, &cfg.Workers); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: bad %s %q: %v\n", setupProbeEnv, spec, err)
		return 1
	}
	fn, ok := workloads[cfg.Workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: set-up probe: unknown workload %q\n", cfg.Workload)
		return 1
	}
	cfg.SetupProbe = true
	if _, err := fn(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: set-up probe: %v\n", err)
		return 1
	}
	return 0
}

// setupDone is where a workload's set-up ends. In a probe it reports
// readiness and returns true: the caller releases its set-up and returns.
func setupDone(cfg config) bool {
	if cfg.SetupProbe {
		fmt.Println(probeReady)
	}
	return cfg.SetupProbe
}
