package stats

import (
	"math"
	"testing"
	"testing/quick"

	"bprom/internal/rng"
)

func TestBasicMoments(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("Std = %v", Std(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	xs := []float64{5, 1, 3}
	if Median(xs) != 3 {
		t.Fatalf("Median = %v", Median(xs))
	}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("quantile endpoints wrong")
	}
	if q := Quantile([]float64{0, 10}, 0.5); q != 5 {
		t.Fatalf("interpolated median %v", q)
	}
	// input must not be reordered
	if xs[0] != 5 {
		t.Fatal("Median mutated its input")
	}
}

func TestMADGaussianConsistency(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 20000)
	r.Gaussian(xs, 5, 3)
	mad := MAD(xs)
	if math.Abs(mad-3) > 0.15 {
		t.Fatalf("MAD = %v, want ~3 for sigma=3", mad)
	}
}

func TestEntropyBounds(t *testing.T) {
	if Entropy([]float64{1, 0, 0}) != 0 {
		t.Fatal("deterministic distribution must have zero entropy")
	}
	k := 8
	p := make([]float64, k)
	for i := range p {
		p[i] = 1.0 / float64(k)
	}
	if math.Abs(Entropy(p)-math.Log(float64(k))) > 1e-12 {
		t.Fatalf("uniform entropy %v, want ln(%d)", Entropy(p), k)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Data stretched along (1,1)/√2 with small noise.
	r := rng.New(2)
	n := 400
	rows := make([][]float64, n)
	for i := range rows {
		tt := r.NormFloat64() * 5
		rows[i] = []float64{tt + 0.1*r.NormFloat64(), tt + 0.1*r.NormFloat64()}
	}
	comps, vars, err := PCA(rows, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	c := comps[0]
	if math.Abs(math.Abs(c[0])-math.Sqrt(0.5)) > 0.02 || math.Abs(math.Abs(c[1])-math.Sqrt(0.5)) > 0.02 {
		t.Fatalf("first component %v, want ±(0.707, 0.707)", c)
	}
	if vars[0] < 10*vars[1] {
		t.Fatalf("variance ordering wrong: %v", vars)
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	r := rng.New(3)
	rows := make([][]float64, 50)
	for i := range rows {
		rows[i] = make([]float64, 6)
		r.Gaussian(rows[i], 0, 1)
	}
	comps, _, err := PCA(rows, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range comps {
		for j := i; j < len(comps); j++ {
			d := dot(comps[i], comps[j])
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(d-want) > 1e-6 {
				t.Fatalf("comp[%d]·comp[%d] = %v, want %v", i, j, d, want)
			}
		}
	}
}

func TestPCAErrors(t *testing.T) {
	if _, _, err := PCA(nil, 1, rng.New(1)); err == nil {
		t.Fatal("expected error for empty input")
	}
	rows := [][]float64{{1, 2}, {3, 4}}
	if _, _, err := PCA(rows, 3, rng.New(1)); err == nil {
		t.Fatal("expected error for k > d")
	}
	if _, _, err := PCA([][]float64{{1, 2}, {3}}, 1, rng.New(1)); err == nil {
		t.Fatal("expected error for ragged input")
	}
}

func TestProjectShape(t *testing.T) {
	rows := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	comps := [][]float64{{1, 0}, {0, 1}}
	proj := Project(rows, comps)
	if len(proj) != 3 || len(proj[0]) != 2 {
		t.Fatalf("projection shape %dx%d", len(proj), len(proj[0]))
	}
}

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	r := rng.New(4)
	var rows [][]float64
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{r.NormFloat64() * 0.1, r.NormFloat64() * 0.1})
	}
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{10 + r.NormFloat64()*0.1, 10 + r.NormFloat64()*0.1})
	}
	assign, cents, err := KMeans(rows, 2, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cents) != 2 {
		t.Fatalf("%d centroids", len(cents))
	}
	// All of the first 30 must share a cluster, all of the last 30 the other.
	for i := 1; i < 30; i++ {
		if assign[i] != assign[0] {
			t.Fatal("first cluster split")
		}
	}
	for i := 31; i < 60; i++ {
		if assign[i] != assign[30] {
			t.Fatal("second cluster split")
		}
	}
	if assign[0] == assign[30] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansErrors(t *testing.T) {
	if _, _, err := KMeans(nil, 2, rng.New(1)); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, _, err := KMeans([][]float64{{1}}, 2, rng.New(1)); err == nil {
		t.Fatal("expected error for k > n")
	}
}

func TestSilhouetteSeparatedVsMixed(t *testing.T) {
	r := rng.New(5)
	var rows [][]float64
	var goodAssign, badAssign []int
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{r.NormFloat64() * 0.1})
		goodAssign = append(goodAssign, 0)
		badAssign = append(badAssign, i%2)
	}
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{5 + r.NormFloat64()*0.1})
		goodAssign = append(goodAssign, 1)
		badAssign = append(badAssign, i%2)
	}
	good := Silhouette(rows, goodAssign)
	bad := Silhouette(rows, badAssign)
	if good < 0.9 {
		t.Fatalf("separated silhouette %v, want > 0.9", good)
	}
	if bad >= good {
		t.Fatalf("mixed assignment silhouette %v not below separated %v", bad, good)
	}
}

func TestDCT2DParseval(t *testing.T) {
	// Orthonormal DCT preserves energy.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h, w := 6, 8
		img := make([]float64, h*w)
		r.Gaussian(img, 0, 1)
		out := DCT2D(img, h, w)
		var e1, e2 float64
		for i := range img {
			e1 += img[i] * img[i]
			e2 += out[i] * out[i]
		}
		return math.Abs(e1-e2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDCT2DConstantImage(t *testing.T) {
	img := make([]float64, 16)
	for i := range img {
		img[i] = 2
	}
	out := DCT2D(img, 4, 4)
	// Only the DC coefficient should be nonzero.
	if math.Abs(out[0]-8) > 1e-9 { // 2 * sqrt(16) = 8
		t.Fatalf("DC coefficient %v, want 8", out[0])
	}
	for i := 1; i < len(out); i++ {
		if math.Abs(out[i]) > 1e-9 {
			t.Fatalf("AC coefficient %d = %v, want 0", i, out[i])
		}
	}
}

func TestHighFreqEnergy(t *testing.T) {
	dct := make([]float64, 16)
	dct[0] = 1  // low frequency (0,0)
	dct[15] = 1 // high frequency (3,3)
	e := HighFreqEnergy(dct, 4, 4, 3)
	if math.Abs(e-0.5) > 1e-12 {
		t.Fatalf("high-freq share %v, want 0.5", e)
	}
	if HighFreqEnergy(make([]float64, 16), 4, 4, 3) != 0 {
		t.Fatal("zero image must have zero high-freq share")
	}
}
