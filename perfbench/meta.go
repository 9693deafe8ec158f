package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runMeta records the host and the run beside every result, so a host
// change can be told apart from a regression.
func runMeta(cfg config, extra map[string]any) map[string]any {
	commit, dirty := gitState()
	m := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds.Seconds(),
		"trace":      cfg.Trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"dirty":      dirty,
		"workers":    cfg.Workers,
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitState reports the checkout's commit and whether its tracked files
// differ from it. A checkout that is not the top of a git repository
// reports "unknown" (and dirty = nil): the benchmark never needs git.
func gitState() (string, any) {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown", nil
	}
	top, err := exec.Command("git", "rev-parse", "--show-toplevel").Output()
	if err != nil || strings.TrimSpace(string(top)) != wd {
		return "unknown", nil
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", nil
	}
	commit := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return commit, nil
	}
	return commit, len(strings.TrimSpace(string(st))) > 0
}

// vmHWM is the process's peak resident set (VmHWM) in MiB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// runtimeStats is the part of runtime.MemStats the traced run reports.
type runtimeStats struct {
	alloc uint64
	gcs   uint32
}

func (r *runtimeStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc, r.gcs = ms.TotalAlloc, ms.NumGC
}
