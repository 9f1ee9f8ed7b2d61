package data

import (
	"fmt"
	"math"

	"bprom/internal/rng"
)

// Spec describes a synthetic dataset family. Presets mirror the paper's
// datasets: class counts are faithful; resolutions are scaled down so
// CPU-only training completes.
type Spec struct {
	Name    string
	Shape   Shape
	Classes int
	// Waves is the number of sinusoidal components per class template.
	Waves int
	// NoiseStd is the per-pixel jitter applied to each sample.
	NoiseStd float64
	// MaxShift is the maximum per-sample translation in pixels.
	MaxShift int
	// BrightnessJitter is the max absolute per-sample brightness offset.
	BrightnessJitter float64
}

// Preset names accepted by SpecFor.
const (
	CIFAR10      = "cifar10"
	GTSRB        = "gtsrb"
	STL10        = "stl10"
	SVHN         = "svhn"
	CIFAR100     = "cifar100"
	TinyImageNet = "tinyimagenet"
	ImageNet     = "imagenet"
)

// SpecFor returns the preset spec for one of the paper's datasets. The
// boolean reports whether the name was recognized.
func SpecFor(name string) (Spec, bool) {
	base := Spec{Waves: 3, NoiseStd: 0.08, MaxShift: 1, BrightnessJitter: 0.06}
	switch name {
	case CIFAR10:
		base.Name, base.Shape, base.Classes = CIFAR10, Shape{C: 3, H: 12, W: 12}, 10
	case GTSRB:
		// Traffic signs: more classes, slightly crisper templates.
		base.Name, base.Shape, base.Classes = GTSRB, Shape{C: 3, H: 12, W: 12}, 43
		base.NoiseStd = 0.06
	case STL10:
		// STL-10 images are larger than CIFAR's; keep that relationship.
		base.Name, base.Shape, base.Classes = STL10, Shape{C: 3, H: 16, W: 16}, 10
	case SVHN:
		base.Name, base.Shape, base.Classes = SVHN, Shape{C: 3, H: 12, W: 12}, 10
		base.NoiseStd = 0.10 // street-number crops are noisier
	case CIFAR100:
		base.Name, base.Shape, base.Classes = CIFAR100, Shape{C: 3, H: 12, W: 12}, 100
	case TinyImageNet:
		base.Name, base.Shape, base.Classes = TinyImageNet, Shape{C: 3, H: 14, W: 14}, 200
	case ImageNet:
		// 1000 classes is kept: what matters for Table 26's shape is a large
		// label space; per-class sample counts shrink instead.
		base.Name, base.Shape, base.Classes = ImageNet, Shape{C: 3, H: 14, W: 14}, 1000
	default:
		return Spec{}, false
	}
	return base, true
}

// MustSpec returns the preset or panics; for tests and examples with
// hardcoded names.
func MustSpec(name string) Spec {
	s, ok := SpecFor(name)
	if !ok {
		panic(fmt.Sprintf("data: unknown dataset preset %q", name))
	}
	return s
}

// classTemplate holds the generative parameters of one class.
type classTemplate struct {
	base []float64 // C*H*W template pixels in [0,1]
}

// Generator produces samples for a Spec. The same (spec, seed) pair always
// yields the same class templates, so "CIFAR-10" means the same distribution
// everywhere in the repository — the defender's reserved split and the
// attacker's training data genuinely come from one distribution.
type Generator struct {
	Spec      Spec
	templates []classTemplate
	seed      uint64
}

// NewGenerator builds the per-class templates for the spec.
func NewGenerator(spec Spec, seed uint64) *Generator {
	if !spec.Shape.Valid() || spec.Classes < 2 {
		panic(fmt.Sprintf("data: invalid spec %+v", spec))
	}
	g := &Generator{Spec: spec, seed: seed}
	g.templates = make([]classTemplate, spec.Classes)
	root := rng.New(seed).Split("templates:" + spec.Name)
	for c := range g.templates {
		g.templates[c] = makeTemplate(spec, c, root.Split("class", c))
	}
	return g
}

// universeSeed fixes the shared "visual world" from which every dataset's
// class templates derive. The paper's source/target pairs (CIFAR-10 and
// STL-10) share 9 of 10 semantic classes, which is what makes the identity
// output mapping of VP meaningful; we reproduce that by keying the dominant
// sinusoid components of class c on c alone (universe) and letting each
// dataset distort them (amplitude/phase jitter, an extra dataset-specific
// wave, its own blob). Class j therefore "means" the same visual concept
// across datasets while every dataset remains a distinct distribution.
const universeSeed = 0xB9207

type wave struct{ fx, fy, phase, amp float64 }

// makeTemplate composes class-keyed universal sinusoids plus dataset-keyed
// distortion into a class template per channel, normalized into [0.1, 0.9]
// so jitter rarely clips.
func makeTemplate(spec Spec, class int, r *rng.RNG) classTemplate {
	sh := spec.Shape
	base := make([]float64, sh.Dim())
	for c := 0; c < sh.C; c++ {
		off := c * sh.H * sh.W
		// Universal components: same for class `class`, channel c in every
		// dataset. Frequencies are expressed per unit of normalized image
		// coordinates so templates survive resolution changes (VP resizes
		// across datasets).
		ur := rng.New(universeSeed).Split("class", class, c)
		waves := make([]wave, spec.Waves+1)
		for i := 0; i < spec.Waves; i++ {
			waves[i] = wave{
				fx:    (ur.Float64()*2 + 0.5) * math.Pi,
				fy:    (ur.Float64()*2 + 0.5) * math.Pi,
				phase: ur.Float64() * 2 * math.Pi,
				amp:   0.4 + 0.6*ur.Float64(),
			}
		}
		// One high-frequency texture wave per class: natural images carry
		// fine-grained texture that excites localized (trigger-like) feature
		// detectors; without it, poisoned models never confuse prompted
		// content with triggers and the paper's effect cannot form.
		waves[spec.Waves] = wave{
			fx:    (ur.Float64()*6 + 6) * math.Pi,
			fy:    (ur.Float64()*6 + 6) * math.Pi,
			phase: ur.Float64() * 2 * math.Pi,
			amp:   0.5 + 0.4*ur.Float64(),
		}
		// Dataset distortion: jitter the universal waves and add one wave
		// plus one blob of the dataset's own.
		for i := range waves {
			waves[i].amp *= 0.7 + 0.6*r.Float64()
			waves[i].phase += (r.Float64() - 0.5) * 0.6
		}
		own := wave{
			fx:    (r.Float64()*2 + 0.5) * math.Pi,
			fy:    (r.Float64()*2 + 0.5) * math.Pi,
			phase: r.Float64() * 2 * math.Pi,
			amp:   0.25 + 0.25*r.Float64(),
		}
		bx := r.Float64()
		by := r.Float64()
		sigma := 0.08 + 0.17*r.Float64()
		blobAmp := 0.3 + 0.5*r.Float64()
		lo, hi := math.Inf(1), math.Inf(-1)
		for y := 0; y < sh.H; y++ {
			ny := float64(y) / float64(sh.H-1)
			for x := 0; x < sh.W; x++ {
				nx := float64(x) / float64(sh.W-1)
				v := 0.0
				for _, w := range waves {
					v += w.amp * math.Sin(w.fx*nx+w.fy*ny+w.phase)
				}
				v += own.amp * math.Sin(own.fx*nx+own.fy*ny+own.phase)
				dx, dy := nx-bx, ny-by
				v += blobAmp * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
				base[off+y*sh.W+x] = v
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
		}
		// normalize this channel into [0.1, 0.9]
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for i := off; i < off+sh.H*sh.W; i++ {
			base[i] = 0.1 + 0.8*(base[i]-lo)/span
		}
	}
	return classTemplate{base: base}
}

// SampleInto writes one jittered sample of class c into dst using r.
func (g *Generator) SampleInto(dst []float64, c int, r *rng.RNG) {
	spec := g.Spec
	sh := spec.Shape
	tpl := g.templates[c].base
	shiftX, shiftY := 0, 0
	if spec.MaxShift > 0 {
		shiftX = r.Intn(2*spec.MaxShift+1) - spec.MaxShift
		shiftY = r.Intn(2*spec.MaxShift+1) - spec.MaxShift
	}
	bright := 0.0
	if spec.BrightnessJitter > 0 {
		bright = (2*r.Float64() - 1) * spec.BrightnessJitter
	}
	for ch := 0; ch < sh.C; ch++ {
		off := ch * sh.H * sh.W
		for y := 0; y < sh.H; y++ {
			sy := clampInt(y+shiftY, 0, sh.H-1)
			for x := 0; x < sh.W; x++ {
				sx := clampInt(x+shiftX, 0, sh.W-1)
				v := tpl[off+sy*sh.W+sx] + bright + spec.NoiseStd*r.NormFloat64()
				dst[off+y*sh.W+x] = clampF(v, 0, 1)
			}
		}
	}
}

// Generate produces a dataset with perClass samples per class. Labels cycle
// 0..Classes-1 so every class is represented even for tiny sizes.
func (g *Generator) Generate(perClass int, r *rng.RNG) *Dataset {
	spec := g.Spec
	n := perClass * spec.Classes
	d := &Dataset{
		Name:    spec.Name,
		Shape:   spec.Shape,
		Classes: spec.Classes,
		X:       make([]float64, n*spec.Shape.Dim()),
		Y:       make([]int, n),
	}
	w := spec.Shape.Dim()
	i := 0
	for c := 0; c < spec.Classes; c++ {
		cr := r.Split("gen", c)
		for s := 0; s < perClass; s++ {
			g.SampleInto(d.X[i*w:(i+1)*w], c, cr)
			d.Y[i] = c
			i++
		}
	}
	// Shuffle so batching never sees class-sorted order.
	perm := r.Perm(n)
	shuffled := d.Subset(perm)
	return shuffled
}

// GenerateSplit is the common "train/test from one distribution" helper:
// it generates perClassTrain+perClassTest samples per class and returns
// disjoint train and test datasets.
func (g *Generator) GenerateSplit(perClassTrain, perClassTest int, r *rng.RNG) (train, test *Dataset) {
	train = g.Generate(perClassTrain, r.Split("train"))
	test = g.Generate(perClassTest, r.Split("test"))
	return train, test
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
