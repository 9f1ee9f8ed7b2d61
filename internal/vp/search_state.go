package vp

import (
	"bprom/internal/binio"
	"bprom/internal/cmaes"
)

// SearchState is the resumable state of a black-box prompt search at a
// CMA-ES generation boundary: the full optimizer snapshot plus the
// mini-batch sampling RNG. Together they determine every remaining oracle
// query, so a search resumed from a SearchState reproduces the
// uninterrupted run bit-for-bit — learned θ and per-image query count
// alike. This is the payload of audit-job checkpoints in the journaled job
// store.
type SearchState struct {
	CMA      cmaes.SepState
	BatchRNG [6]uint64
}

// Save writes the search state to w.
func (st *SearchState) Save(w *binio.Writer) {
	for _, v := range []int{st.CMA.Iter, st.CMA.Evals, st.CMA.Stale} {
		w.U64(uint64(v))
	}
	for _, v := range []float64{st.CMA.Sigma, st.CMA.BestValue, st.CMA.PrevBest} {
		w.F64(v)
	}
	for _, s := range [][]float64{st.CMA.Mean, st.CMA.Diag, st.CMA.Ps, st.CMA.Pc, st.CMA.Best} {
		w.Floats(s)
	}
	for _, words := range [][6]uint64{st.CMA.RNG, st.BatchRNG} {
		for _, v := range words {
			w.U64(v)
		}
	}
}

// LoadSearchState reads a state previously written by Save.
func LoadSearchState(r *binio.Reader) (*SearchState, error) {
	st := &SearchState{}
	for _, dst := range []*int{&st.CMA.Iter, &st.CMA.Evals, &st.CMA.Stale} {
		*dst = int(r.U64())
	}
	for _, dst := range []*float64{&st.CMA.Sigma, &st.CMA.BestValue, &st.CMA.PrevBest} {
		*dst = r.F64()
	}
	vectors := []*[]float64{&st.CMA.Mean, &st.CMA.Diag, &st.CMA.Ps, &st.CMA.Pc, &st.CMA.Best}
	for _, dst := range vectors {
		*dst = r.Floats()
	}
	for _, dst := range []*[6]uint64{&st.CMA.RNG, &st.BatchRNG} {
		for i := range dst {
			dst[i] = r.U64()
		}
	}
	for _, v := range vectors {
		if len(*v) != len(st.CMA.Mean) {
			r.Failf("vp: search state vectors disagree on dimension (%d vs %d)", len(*v), len(st.CMA.Mean))
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return st, nil
}
