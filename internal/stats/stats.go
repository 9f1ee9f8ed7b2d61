// Package stats provides the statistical primitives the baseline defenses
// and visualizations need: PCA (power iteration), k-means, per-class
// covariance utilities, median absolute deviation, quantiles, Shannon
// entropy, silhouette scores, and a 2-D DCT for the Frequency defense.
package stats

import (
	"fmt"
	"math"
	"sort"

	"bprom/internal/rng"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs (0 for empty input). xs is not modified.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-quantile (linear interpolation) of xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// MAD returns the median absolute deviation of xs (scaled by 1.4826 so it
// estimates σ for Gaussian data), as used by anomaly detectors.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, v := range xs {
		dev[i] = math.Abs(v - med)
	}
	return 1.4826 * Median(dev)
}

// Entropy returns the Shannon entropy (nats) of a probability vector.
// Non-positive entries contribute zero.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// --- PCA ------------------------------------------------------------------------

// PCA computes the top-k principal components of rows (n samples × d dims)
// via power iteration with deflation. It returns the components (k × d, unit
// norm) and the per-component explained variance. Rows are centered
// internally; the input is not modified.
func PCA(rows [][]float64, k int, r *rng.RNG) (components [][]float64, variances []float64, err error) {
	n := len(rows)
	if n == 0 {
		return nil, nil, fmt.Errorf("stats: PCA of empty matrix")
	}
	d := len(rows[0])
	if k <= 0 || k > d {
		return nil, nil, fmt.Errorf("stats: PCA k=%d outside [1,%d]", k, d)
	}
	// center
	mean := make([]float64, d)
	for _, row := range rows {
		if len(row) != d {
			return nil, nil, fmt.Errorf("stats: ragged PCA input")
		}
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	x := make([][]float64, n)
	for i, row := range rows {
		x[i] = make([]float64, d)
		for j, v := range row {
			x[i][j] = v - mean[j]
		}
	}
	components = make([][]float64, 0, k)
	variances = make([]float64, 0, k)
	tmp := make([]float64, n)
	for c := 0; c < k; c++ {
		v := make([]float64, d)
		r.Gaussian(v, 0, 1)
		normalize(v)
		var lambda float64
		for iter := 0; iter < 100; iter++ {
			// w = Xᵀ X v / n  without forming the covariance
			for i := range x {
				tmp[i] = dot(x[i], v)
			}
			w := make([]float64, d)
			for i := range x {
				for j := range w {
					w[j] += tmp[i] * x[i][j]
				}
			}
			for j := range w {
				w[j] /= float64(n)
			}
			newLambda := norm(w)
			if newLambda == 0 {
				break
			}
			for j := range w {
				w[j] /= newLambda
			}
			delta := 0.0
			for j := range w {
				dl := w[j] - v[j]
				delta += dl * dl
			}
			copy(v, w)
			lambda = newLambda
			if delta < 1e-12 {
				break
			}
		}
		components = append(components, v)
		variances = append(variances, lambda)
		// deflate: remove the component from every row
		for i := range x {
			proj := dot(x[i], v)
			for j := range x[i] {
				x[i][j] -= proj * v[j]
			}
		}
	}
	return components, variances, nil
}

// Project maps rows onto the given components, returning n × k coordinates.
// Rows are centered with their own mean, matching PCA's internal centering.
func Project(rows [][]float64, components [][]float64) [][]float64 {
	n := len(rows)
	if n == 0 {
		return nil
	}
	d := len(rows[0])
	mean := make([]float64, d)
	for _, row := range rows {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	out := make([][]float64, n)
	centered := make([]float64, d)
	for i, row := range rows {
		for j, v := range row {
			centered[j] = v - mean[j]
		}
		out[i] = make([]float64, len(components))
		for c, comp := range components {
			out[i][c] = dot(centered, comp)
		}
	}
	return out
}

// --- k-means -------------------------------------------------------------------

// KMeans clusters rows into k groups (k-means++ init, Lloyd iterations).
// It returns per-row assignments and the centroids.
func KMeans(rows [][]float64, k int, r *rng.RNG) (assign []int, centroids [][]float64, err error) {
	n := len(rows)
	if n == 0 || k <= 0 || k > n {
		return nil, nil, fmt.Errorf("stats: KMeans with n=%d k=%d", n, k)
	}
	d := len(rows[0])
	// k-means++ seeding
	centroids = make([][]float64, 0, k)
	first := r.Intn(n)
	centroids = append(centroids, append([]float64(nil), rows[first]...))
	dist := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		for i, row := range rows {
			best := math.Inf(1)
			for _, c := range centroids {
				if dd := sqDist(row, c); dd < best {
					best = dd
				}
			}
			dist[i] = best
			total += best
		}
		var pick int
		if total == 0 {
			pick = r.Intn(n)
		} else {
			target := r.Float64() * total
			acc := 0.0
			for i, dd := range dist {
				acc += dd
				if acc >= target {
					pick = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), rows[pick]...))
	}
	assign = make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, row := range rows {
			best, bi := math.Inf(1), 0
			for c, cent := range centroids {
				if dd := sqDist(row, cent); dd < best {
					best, bi = dd, c
				}
			}
			if assign[i] != bi {
				assign[i] = bi
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, k)
		for c := range centroids {
			for j := range centroids[c] {
				centroids[c][j] = 0
			}
		}
		for i, row := range rows {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				centroids[c][j] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// re-seed empty cluster at a random row
				copy(centroids[c], rows[r.Intn(n)])
				continue
			}
			for j := range centroids[c] {
				centroids[c][j] /= float64(counts[c])
			}
		}
		_ = d
	}
	return assign, centroids, nil
}

// Silhouette returns the mean silhouette coefficient of a clustering — the
// separation score used to visualize class-subspace structure (Figure 3).
func Silhouette(rows [][]float64, assign []int) float64 {
	n := len(rows)
	if n < 2 {
		return 0
	}
	clusters := map[int][]int{}
	for i, a := range assign {
		clusters[a] = append(clusters[a], i)
	}
	if len(clusters) < 2 {
		return 0
	}
	total := 0.0
	counted := 0
	for i := 0; i < n; i++ {
		own := assign[i]
		if len(clusters[own]) < 2 {
			continue
		}
		a := 0.0
		for _, j := range clusters[own] {
			if j != i {
				a += math.Sqrt(sqDist(rows[i], rows[j]))
			}
		}
		a /= float64(len(clusters[own]) - 1)
		b := math.Inf(1)
		for c, members := range clusters {
			if c == own {
				continue
			}
			d := 0.0
			for _, j := range members {
				d += math.Sqrt(sqDist(rows[i], rows[j]))
			}
			d /= float64(len(members))
			if d < b {
				b = d
			}
		}
		denom := math.Max(a, b)
		if denom > 0 {
			total += (b - a) / denom
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// --- DCT ------------------------------------------------------------------------

// DCT2D computes the orthonormal type-II 2-D DCT of an h×w image (flattened
// row-major). The Frequency defense thresholds high-frequency energy of this
// transform.
func DCT2D(img []float64, h, w int) []float64 {
	if len(img) != h*w {
		panic(fmt.Sprintf("stats: DCT2D image length %d != %dx%d", len(img), h, w))
	}
	tmp := make([]float64, h*w)
	out := make([]float64, h*w)
	// rows
	for y := 0; y < h; y++ {
		dct1D(img[y*w:(y+1)*w], tmp[y*w:(y+1)*w])
	}
	// columns
	col := make([]float64, h)
	colOut := make([]float64, h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			col[y] = tmp[y*w+x]
		}
		dct1D(col, colOut)
		for y := 0; y < h; y++ {
			out[y*w+x] = colOut[y]
		}
	}
	return out
}

func dct1D(in, out []float64) {
	n := len(in)
	for k := 0; k < n; k++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += in[i] * math.Cos(math.Pi*(float64(i)+0.5)*float64(k)/float64(n))
		}
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		out[k] = s * scale
	}
}

// HighFreqEnergy returns the fraction of DCT energy in coefficients whose
// (row+col) index exceeds cutoff — the Frequency defense's statistic.
func HighFreqEnergy(dct []float64, h, w, cutoff int) float64 {
	total, high := 0.0, 0.0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			e := dct[y*w+x] * dct[y*w+x]
			total += e
			if x+y > cutoff {
				high += e
			}
		}
	}
	if total == 0 {
		return 0
	}
	return high / total
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	for i := range a {
		a[i] /= n
	}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
