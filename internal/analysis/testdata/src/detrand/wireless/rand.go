// Package wireless is a detrand fixture: its import path ends in
// /wireless, a deterministic package, so global math/rand functions and
// raw source construction must be flagged while *rand.Rand methods stay
// legal.
package wireless

import "math/rand"

func globalDraws() (int, float64) {
	a := rand.Intn(10)  // want `rand\.Intn draws from the process-global source`
	b := rand.Float64() // want `rand\.Float64 draws from the process-global source`
	return a, b
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `rand\.Shuffle draws from the process-global source`
}

func rawSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `raw rand\.NewSource seeds bypass the labeled-seed scheme`
}

// methodsOK: drawing from an injected *rand.Rand is the blessed pattern —
// the stream was derived from (seed, label) upstream.
func methodsOK(rng *rand.Rand) float64 {
	return rng.Float64() + rng.ExpFloat64() + float64(rng.Intn(3))
}
