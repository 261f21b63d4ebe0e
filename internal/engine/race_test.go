//go:build race

package engine

// raceEnabled reports a -race build: the race detector's sync.Pool drops
// a random share of Puts, so pooled buffers miss and allocation counts
// of pool-backed kernels rise by a few.
const raceEnabled = true
