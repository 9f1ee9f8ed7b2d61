// Package meta implements the meta-classifier of BPROM: a random forest
// (bootstrap-aggregated CART trees with per-split feature subsampling) that
// maps concatenated confidence vectors of a prompted model to a clean /
// backdoor verdict. The paper uses a 10,000-tree forest; the default here is
// 200, which saturates accuracy at our scale.
package meta

import (
	"fmt"
	"math"
	"sort"

	"bprom/internal/rng"
)

// TrainConfig controls forest training.
type TrainConfig struct {
	// Trees is the ensemble size. Default 200.
	Trees int
	// MaxDepth bounds tree depth. Default 8.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf. Default 1.
	MinLeaf int
	// FeatureFrac is the fraction of features examined per split; 0 selects
	// sqrt(d)/d (the classification default).
	FeatureFrac float64
}

func (c *TrainConfig) defaults() {
	if c.Trees <= 0 {
		c.Trees = 200
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 1
	}
}

// Forest is a trained random forest for binary classification.
type Forest struct {
	Trees       []*node
	NumFeatures int
	// inBag[t][i] records whether training row i entered tree t's bootstrap
	// sample; OOBScores uses it for unbiased training-set scores.
	inBag [][]bool
}

// node is one CART node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right *node
	prob        float64 // P(positive) at a leaf
}

// Train fits a forest on feature rows X with binary labels y (true =
// backdoor). Rows must be non-empty and rectangular.
func Train(x [][]float64, y []bool, cfg TrainConfig, r *rng.RNG) (*Forest, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("meta: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("meta: %d rows for %d labels", len(x), len(y))
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("meta: row %d has %d features, want %d", i, len(row), d)
		}
	}
	var pos, neg int
	for _, l := range y {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("meta: training set has %d positive and %d negative samples; need both", pos, neg)
	}
	cfg.defaults()
	mtry := int(cfg.FeatureFrac * float64(d))
	if cfg.FeatureFrac <= 0 {
		mtry = int(math.Sqrt(float64(d)))
	}
	if mtry < 1 {
		mtry = 1
	}
	if mtry > d {
		mtry = d
	}
	f := &Forest{NumFeatures: d, Trees: make([]*node, cfg.Trees), inBag: make([][]bool, cfg.Trees)}
	for t := range f.Trees {
		tr := r.Split("tree", t)
		// bootstrap sample
		idx := make([]int, len(x))
		f.inBag[t] = make([]bool, len(x))
		for i := range idx {
			idx[i] = tr.Intn(len(x))
			f.inBag[t][idx[i]] = true
		}
		f.Trees[t] = growTree(x, y, idx, cfg, mtry, tr, 0)
	}
	return f, nil
}

// OOBScores returns out-of-bag scores for the TRAINING rows the forest was
// fitted on: row i is scored only by trees whose bootstrap excluded it,
// giving an unbiased estimate of held-out scores. Rows that every tree saw
// (vanishingly rare for usual tree counts) fall back to the full-forest
// score. The caller must pass the same rows, in the same order, as Train.
func (f *Forest) OOBScores(x [][]float64) ([]float64, error) {
	out := make([]float64, len(x))
	for i, row := range x {
		if len(row) != f.NumFeatures {
			return nil, fmt.Errorf("meta: row %d has %d features, forest expects %d", i, len(row), f.NumFeatures)
		}
		sum, n := 0.0, 0
		for t, tree := range f.Trees {
			if i < len(f.inBag[t]) && f.inBag[t][i] {
				continue
			}
			node := tree
			for node.feature >= 0 {
				if row[node.feature] <= node.threshold {
					node = node.left
				} else {
					node = node.right
				}
			}
			sum += node.prob
			n++
		}
		if n == 0 {
			s, err := f.Score(row)
			if err != nil {
				return nil, err
			}
			out[i] = s
			continue
		}
		out[i] = sum / float64(n)
	}
	return out, nil
}

func growTree(x [][]float64, y []bool, idx []int, cfg TrainConfig, mtry int, r *rng.RNG, depth int) *node {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if depth >= cfg.MaxDepth || len(idx) <= cfg.MinLeaf || pos == 0 || pos == len(idx) {
		return &node{feature: -1, prob: prob}
	}
	d := len(x[0])
	bestGini := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0
	feats := r.Sample(d, mtry)
	vals := make([]float64, 0, len(idx))
	for _, fi := range feats {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, x[i][fi])
		}
		sort.Float64s(vals)
		for v := 0; v+1 < len(vals); v++ {
			if vals[v] == vals[v+1] {
				continue
			}
			th := (vals[v] + vals[v+1]) / 2
			var lp, ln, rp, rn int
			for _, i := range idx {
				if x[i][fi] <= th {
					if y[i] {
						lp++
					} else {
						ln++
					}
				} else {
					if y[i] {
						rp++
					} else {
						rn++
					}
				}
			}
			lTot, rTot := lp+ln, rp+rn
			if lTot < cfg.MinLeaf || rTot < cfg.MinLeaf {
				continue
			}
			g := gini(lp, lTot)*float64(lTot) + gini(rp, rTot)*float64(rTot)
			if g < bestGini {
				bestGini, bestFeat, bestThresh = g, fi, th
			}
		}
	}
	if bestFeat < 0 {
		return &node{feature: -1, prob: prob}
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	return &node{
		feature:   bestFeat,
		threshold: bestThresh,
		left:      growTree(x, y, li, cfg, mtry, r, depth+1),
		right:     growTree(x, y, ri, cfg, mtry, r, depth+1),
	}
}

func gini(pos, total int) float64 {
	if total == 0 {
		return 0
	}
	p := float64(pos) / float64(total)
	return 2 * p * (1 - p)
}

// Score returns the forest's probability that the feature row is positive
// (backdoored): the mean leaf probability across trees.
func (f *Forest) Score(row []float64) (float64, error) {
	if len(row) != f.NumFeatures {
		return 0, fmt.Errorf("meta: row has %d features, forest expects %d", len(row), f.NumFeatures)
	}
	s := 0.0
	for _, t := range f.Trees {
		n := t
		for n.feature >= 0 {
			if row[n.feature] <= n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		s += n.prob
	}
	return s / float64(len(f.Trees)), nil
}

// Predict thresholds Score at 0.5.
func (f *Forest) Predict(row []float64) (bool, error) {
	s, err := f.Score(row)
	if err != nil {
		return false, err
	}
	return s >= 0.5, nil
}
