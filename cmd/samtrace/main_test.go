package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReplayTraceCSVClosesRun pins the replay's sampler wiring: the CSV's
// last sample sits at the replay's final cycle, so the windowed series
// covers the whole run.
func TestReplayTraceCSVClosesRun(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "t.csv")
	var out bytes.Buffer
	err := run([]string{"-gen", "strided", "-n", "512", "-replay", "-",
		"-trace-csv", csvPath, "-trace-window", "256", "-stats-json", "-"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	var report struct {
		Requests int
		Cycles   int64
	}
	if err := json.Unmarshal([]byte(text[strings.Index(text, "{"):]), &report); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, text)
	}
	if report.Requests != 512 {
		t.Fatalf("%d requests replayed, want 512", report.Requests)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(rows) < 3 {
		t.Fatalf("CSV has %d lines, want a header and several windows", len(rows))
	}
	at, err := strconv.ParseInt(strings.SplitN(rows[len(rows)-1], ",", 2)[0], 10, 64)
	if err != nil || at != report.Cycles {
		t.Fatalf("last sample at %d (%v), want the run's end %d", at, err, report.Cycles)
	}
}
