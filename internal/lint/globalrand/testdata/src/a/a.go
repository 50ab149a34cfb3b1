package a

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func draws() {
	_ = rand.Intn(10)     // want `globalrand: use of global math/rand.Intn`
	_ = rand.Float64()    // want `globalrand: use of global math/rand.Float64`
	_ = rand.Perm(4)      // want `globalrand: use of global math/rand.Perm`
	rand.Shuffle(3, swap) // want `globalrand: use of global math/rand.Shuffle`

	_ = randv2.IntN(10) // want `globalrand: use of global math/rand/v2.IntN`
}

func swap(i, j int) {}

// A v1 source is seeded but 4.9 KB; production code uses a v2 PCG.
func seededV1(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // want `globalrand: math/rand.NewSource allocates a 4.9 KB source`
	r.Shuffle(3, swap)
	return r.Float64() + float64(r.Intn(10))
}

// Explicitly seeded 16-byte streams are the sanctioned pattern.
func seededV2(seed uint64) float64 {
	r := randv2.New(randv2.NewPCG(seed, 0x67656e))
	return r.Float64() + r.NormFloat64()
}

// v1 rand.New over a caller-supplied source is not flagged: only
// NewSource builds the large lagged-Fibonacci state.
func customSource(src rand.Source) int {
	return rand.New(src).Intn(10)
}

func allowedSource(seed int64) rand.Source {
	//lint:allow globalrand — reproduces a stream recorded with math/rand
	return rand.NewSource(seed)
}

func allowed() int {
	//lint:allow globalrand — seeding irrelevance demonstrated for docs
	return rand.Intn(3)
}

func badDirective() int {
	//lint:allow globalrand // want `requires a reason`
	return rand.Intn(3) // want `globalrand: use of global math/rand.Intn`
}
