//go:build !race

package rng

import (
	"slices"
	"testing"
)

// referenceSample is Sample as it was written before SampleInto existed: a
// fresh n-sized permutation, partially shuffled.
func referenceSample(r *RNG, n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k:k]
}

// TestSampleIntoMatchesSample sweeps (n, k, seed): SampleInto into dirty
// reused scratch, Sample and the reference draw the same indices and leave
// the generator in the same state, and SampleInto allocates nothing.
func TestSampleIntoMatchesSample(t *testing.T) {
	scratch := make([]int, 0, 600)
	for _, n := range []int{1, 2, 7, 24, 100, 513} {
		for _, k := range []int{0, 1, n / 3, n - 1, n} {
			if k < 0 {
				continue
			}
			for seed := uint64(0); seed < 4; seed++ {
				ref, a, b := New(seed), New(seed), New(seed)
				want := referenceSample(ref, n, k)
				got := a.Sample(n, k)
				perm := scratch[:n]
				for i := range perm {
					perm[i] = -7 // stale contents from an earlier draw
				}
				into := b.SampleInto(perm, k)
				if !slices.Equal(got, want) || !slices.Equal(into, want) {
					t.Fatalf("n=%d k=%d seed=%d: Sample %v, SampleInto %v, reference %v", n, k, seed, got, into, want)
				}
				if a.State() != ref.State() || b.State() != ref.State() {
					t.Fatalf("n=%d k=%d seed=%d: generator states diverge after the draw", n, k, seed)
				}
				if cap(into) != k {
					t.Fatalf("n=%d k=%d: SampleInto result has cap %d, want %d", n, k, cap(into), k)
				}
			}
		}
	}
	r := New(9)
	perm := make([]int, 4311)
	if allocs := testing.AllocsPerRun(50, func() { r.SampleInto(perm, 24) }); allocs != 0 {
		t.Fatalf("SampleInto allocates %v times per draw, want 0", allocs)
	}
}
