package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds the per-cell result digests of the simulator workloads,
// keyed by goldenKey. Regenerate with `go test -run TestUpdateGolden
// -update` after a change that is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

func goldenKey(workload string, short bool, seed uint64) string {
	if short {
		return fmt.Sprintf("%s/short/seed=%d", workload, seed)
	}
	return fmt.Sprintf("%s/seed=%d", workload, seed)
}

// goldenFor returns the stored digests for this run, or nil when the seed
// has none (the run then gates every pass on its first).
func goldenFor(workload string, cfg config) []string {
	var all map[string][]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic("perfbench: golden.json: " + err.Error())
	}
	return all[goldenKey(workload, cfg.Short, cfg.Seed)]
}
