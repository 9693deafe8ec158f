//go:build race

package serve

// raceEnabled reports a -race build, where the soak test sends fewer
// submissions.
const raceEnabled = true
