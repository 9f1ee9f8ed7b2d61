// Package metric implements the detection-quality metrics the paper reports:
// AUROC, and F1 / precision / recall at a threshold. Scores
// follow the convention "higher = more likely positive (backdoored /
// poisoned / triggered)".
package metric

import (
	"fmt"
	"sort"
)

// AUROC computes the area under the ROC curve for scores with binary labels
// (true = positive). It handles ties by the trapezoidal rule over the
// rank-ordered sweep, equivalent to the Mann–Whitney U statistic. It returns
// an error when either class is absent — an undefined-AUROC situation that
// experiment code must surface rather than average away.
func AUROC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("metric: %d scores for %d labels", len(scores), len(labels))
	}
	var pos, neg int
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("metric: AUROC undefined with %d positives and %d negatives", pos, neg)
	}
	// Mann–Whitney with midranks for ties.
	type pair struct {
		s float64
		l bool
	}
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	rankSumPos := 0.0
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		// midrank for the tied block [i, j)
		mid := float64(i+j-1)/2 + 1 // ranks are 1-based
		for k := i; k < j; k++ {
			if ps[k].l {
				rankSumPos += mid
			}
		}
		i = j
	}
	u := rankSumPos - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), nil
}

// Confusion holds binary-classification counts at a threshold.
type Confusion struct {
	TP, FP, TN, FN int
}

// Confuse thresholds scores at th (score >= th predicts positive).
func Confuse(scores []float64, labels []bool, th float64) Confusion {
	var c Confusion
	for i, s := range scores {
		pred := s >= th
		switch {
		case pred && labels[i]:
			c.TP++
		case pred && !labels[i]:
			c.FP++
		case !pred && labels[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Precision returns TP/(TP+FP), 0 when no positives are predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), 0 when no positives exist.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall (0 when undefined).
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.TN + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// F1AtThreshold is the common shorthand used by the experiment tables.
func F1AtThreshold(scores []float64, labels []bool, th float64) float64 {
	return Confuse(scores, labels, th).F1()
}

// BestF1 sweeps all score thresholds and returns the maximum F1 (papers
// commonly report the best-threshold F1 for sample-level detectors).
func BestF1(scores []float64, labels []bool) float64 {
	if len(scores) == 0 {
		return 0
	}
	uniq := append([]float64(nil), scores...)
	sort.Float64s(uniq)
	best := 0.0
	for _, th := range uniq {
		if f := F1AtThreshold(scores, labels, th); f > best {
			best = f
		}
	}
	return best
}
