package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunEmitsTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "table2", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "== Table 2: simulated system parameters ==\n") {
		t.Fatalf("table2 output:\n%s", out.String())
	}
	err := run([]string{"-exp", "fig99"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("run -exp fig99 returned %v, want the unknown-experiment error", err)
	}
}
