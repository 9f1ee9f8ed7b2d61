package metric

import (
	"math"
	"testing"
	"testing/quick"

	"bprom/internal/rng"
)

func TestAUROCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	auc, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 1 {
		t.Fatalf("AUROC = %v, want 1", auc)
	}
}

func TestAUROCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	auc, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0 {
		t.Fatalf("AUROC = %v, want 0", auc)
	}
}

func TestAUROCChance(t *testing.T) {
	// identical scores: AUROC must be exactly 0.5 via midranks
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	auc, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if auc != 0.5 {
		t.Fatalf("AUROC = %v, want 0.5", auc)
	}
}

func TestAUROCKnownValue(t *testing.T) {
	// hand-computed example with one inversion
	scores := []float64{0.9, 0.3, 0.6, 0.1}
	labels := []bool{true, true, false, false}
	// pairs: (0.9 vs 0.6): win, (0.9 vs 0.1): win, (0.3 vs 0.6): loss, (0.3 vs 0.1): win
	// AUROC = 3/4
	auc, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(auc-0.75) > 1e-12 {
		t.Fatalf("AUROC = %v, want 0.75", auc)
	}
}

func TestAUROCErrorsWithoutBothClasses(t *testing.T) {
	if _, err := AUROC([]float64{1, 2}, []bool{true, true}); err == nil {
		t.Fatal("expected error for all-positive labels")
	}
	if _, err := AUROC([]float64{1, 2}, []bool{false, false}); err == nil {
		t.Fatal("expected error for all-negative labels")
	}
	if _, err := AUROC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestAUROCInvarianceToMonotoneTransform(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20
		scores := make([]float64, n)
		labels := make([]bool, n)
		r.Gaussian(scores, 0, 1)
		pos := 0
		for i := range labels {
			labels[i] = r.Float64() < 0.5
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == n {
			return true // undefined case, skip
		}
		a1, err1 := AUROC(scores, labels)
		scaled := make([]float64, n)
		for i, s := range scores {
			scaled[i] = math.Exp(2*s) + 7 // strictly monotone
		}
		a2, err2 := AUROC(scaled, labels)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionAndDerivedMetrics(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.6, 0.4, 0.2}
	labels := []bool{true, false, true, false, false}
	c := Confuse(scores, labels, 0.5)
	if c.TP != 2 || c.FP != 1 || c.TN != 2 || c.FN != 0 {
		t.Fatalf("confusion %+v", c)
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("precision %v", c.Precision())
	}
	if c.Recall() != 1 {
		t.Fatalf("recall %v", c.Recall())
	}
	wantF1 := 2 * (2.0 / 3) * 1 / (2.0/3 + 1)
	if math.Abs(c.F1()-wantF1) > 1e-12 {
		t.Fatalf("F1 %v, want %v", c.F1(), wantF1)
	}
	if math.Abs(c.Accuracy()-0.8) > 1e-12 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
}

func TestConfusionEmptyEdges(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty confusion must yield zeros, not NaN")
	}
}

func TestBestF1AtLeastFixedThreshold(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 15
		scores := make([]float64, n)
		labels := make([]bool, n)
		r.Uniform(scores, 0, 1)
		hasPos := false
		for i := range labels {
			labels[i] = r.Float64() < 0.4
			hasPos = hasPos || labels[i]
		}
		if !hasPos {
			return true
		}
		return BestF1(scores, labels) >= F1AtThreshold(scores, labels, 0.5)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBestF1PerfectScores(t *testing.T) {
	if got := BestF1([]float64{0.9, 0.8, 0.1}, []bool{true, true, false}); got != 1 {
		t.Fatalf("BestF1 = %v, want 1", got)
	}
	if got := BestF1(nil, nil); got != 0 {
		t.Fatalf("BestF1(empty) = %v", got)
	}
}
