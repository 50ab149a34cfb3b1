//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation gates skip under it: the detector adds allocations
// and sync.Pool drops items at random.
package race

// Enabled is true when built with -race.
const Enabled = true
