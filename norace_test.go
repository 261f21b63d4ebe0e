//go:build !race

package exrquy

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
