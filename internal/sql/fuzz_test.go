package sql_test

import (
	"testing"

	"sam/internal/core"
	"sam/internal/sql"
)

// FuzzParse feeds arbitrary text to the parser and compiles whatever
// parses with x, y and z bound. Neither step may panic, and every
// rejection must say why. The seeds are the paper's Table 3 queries.
func FuzzParse(f *testing.F) {
	for _, q := range core.Benchmark() {
		f.Add(q.SQL)
	}
	params := sql.Params{"x": 1, "y": 2, "z": 3}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.Parse(src)
		if err != nil {
			if err.Error() == "" {
				t.Fatalf("Parse(%q): empty error", src)
			}
			return
		}
		plan, err := sql.Compile(stmt, params)
		switch {
		case err != nil && err.Error() == "":
			t.Fatalf("Compile(%q): empty error", src)
		case err == nil && plan == nil:
			t.Fatalf("Compile(%q): nil plan without an error", src)
		}
	})
}
