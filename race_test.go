//go:build race

package exrquy

// raceEnabled reports a -race build: the race detector's sync.Pool drops
// a random share of Puts, so allocation counts of pooled executions are
// not deterministic.
const raceEnabled = true
