package a

import "math/rand"

// Tests may use the global source for non-reproducible fuzzing.
func helperForTests() int {
	return rand.Intn(100)
}

// Tests may also build v1 sources, e.g. for randomized topologies.
func testSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
