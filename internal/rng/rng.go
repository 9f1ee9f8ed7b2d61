// Package rng provides the deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table cmd/tables prints must be regenerable bit-for-bit from a seed. The
// standard library's math/rand/v2 offers no stable splitting discipline, so
// this package implements xoshiro256** seeded via splitmix64 (the reference
// seeding procedure recommended by the xoshiro authors) and derives child
// generators by hashing a label into the parent seed. Child streams are
// statistically independent for distinct labels, which lets concurrent
// shadow-model training draw from per-model streams without locking.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. The zero value is NOT valid; construct
// with New or Split. RNG is not safe for concurrent use; Split per goroutine.
type RNG struct {
	s         [4]uint64
	haveSpare bool    // Box–Muller produces variates in pairs;
	spare     float64 // the second is cached here for the next call.
}

// splitmix64 advances the 64-bit state and returns the next output. It is
// used only to expand seeds into full xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro requires a nonzero state; splitmix64 of any seed yields one
	// with overwhelming probability, but guard the pathological case.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Split derives an independent child generator identified by label. Splitting
// the same parent state with the same label always yields the same child, so
// experiment code can fan out work deterministically:
//
//	shadowRNG := root.Split("shadow", i)
func (r *RNG) Split(label string, idx ...int) *RNG {
	st := r.Uint64()
	for _, b := range []byte(label) {
		st = st*1099511628211 + uint64(b) // FNV-style fold of the label
		st = splitmix64(&st)
	}
	for _, i := range idx {
		st = splitmix64(&st) ^ uint64(i)*0x9e3779b97f4a7c15
	}
	return New(splitmix64(&st))
}

// State captures the complete generator state as six words: the four
// xoshiro256** state words, the Box–Muller spare flag (0 or 1), and the
// cached spare variate as IEEE-754 bits. FromState(r.State()) yields a
// generator that continues r's stream bit-exactly, which is what lets a
// checkpointed detector search resume mid-stream after a restart.
func (r *RNG) State() [6]uint64 {
	st := [6]uint64{r.s[0], r.s[1], r.s[2], r.s[3], 0, math.Float64bits(r.spare)}
	if r.haveSpare {
		st[4] = 1
	}
	return st
}

// SetState overwrites r in place with a State() snapshot, for callers whose
// generator pointer is already shared (closures, evaluator structs).
func (r *RNG) SetState(st [6]uint64) {
	*r = *FromState(st)
}

// FromState reconstructs a generator from a State() snapshot.
func FromState(st [6]uint64) *RNG {
	r := &RNG{
		s:         [4]uint64{st[0], st[1], st[2], st[3]},
		haveSpare: st[4] != 0,
		spare:     math.Float64frombits(st[5]),
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers validate n at configuration boundaries.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform. It caches the second variate for the next call.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.haveSpare = true
	return u * f
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n; experiment configs validate sizes up front.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample k > n")
	}
	return r.SampleInto(make([]int, n), k)
}

// SampleInto is Sample(len(perm), k) drawn into caller scratch: it
// overwrites perm and returns its first k slots, the same indices in the
// same order after the same draws. A caller that samples repeatedly from
// one population — a mini-batch per CMA-ES candidate — reuses one perm
// instead of allocating an n-sized permutation per draw. The result aliases
// perm, so it is valid until perm is reused.
func (r *RNG) SampleInto(perm []int, k int) []int {
	n := len(perm)
	if k > n {
		panic("rng: Sample k > n")
	}
	// Partial Fisher–Yates: only the first k slots are needed.
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:k:k]
}

// Gaussian fills dst with independent N(mu, sigma^2) variates.
func (r *RNG) Gaussian(dst []float64, mu, sigma float64) {
	for i := range dst {
		dst[i] = mu + sigma*r.NormFloat64()
	}
}

// Uniform fills dst with independent U[lo, hi) variates.
func (r *RNG) Uniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = lo + (hi-lo)*r.Float64()
	}
}
