package exp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/meta"
	"bprom/internal/metric"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// trainModel builds and trains one classifier on ds. blocks is the arch's
// block count (0: nn's default).
func trainModel(ctx context.Context, ds *data.Dataset, arch nn.Arch, blocks int, p Params, seed uint64) (*nn.Model, error) {
	m, err := nn.Build(nn.ArchConfig{
		Arch: arch, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
		NumClasses: ds.Classes, Hidden: p.Hidden, Blocks: blocks,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Train(ctx, m, ds, trainer.Config{Epochs: p.Epochs}, rng.New(seed).Split("train")); err != nil {
		return nil, err
	}
	return m, nil
}

// trainDetector builds a BPROM detector on w whose shadows have the given
// arch and block count (0: nn's default).
func trainDetector(ctx context.Context, w *world, arch nn.Arch, blocks int, p Params, shadowAttack attack.Config) (*bprom.Detector, error) {
	if shadowAttack.Kind == "" {
		shadowAttack = attack.Config{Kind: attack.BadNets, PoisonRate: 0.20}
	}
	return bprom.Train(ctx, bprom.Config{
		Reserved:      w.reserved,
		ExternalTrain: w.tgtTrain,
		ExternalTest:  w.tgtTest,
		NumClean:      p.ShadowClean,
		NumBackdoor:   p.ShadowBackdoor,
		ShadowArch:    nn.ArchConfig{Arch: arch, Hidden: p.Hidden, Blocks: blocks},
		ShadowTrain:   trainer.Config{Epochs: p.Epochs},
		ShadowAttack:  shadowAttack,
		PromptFrac:    p.PromptFrac,
		WhiteBox:      vp.WhiteBoxConfig{Epochs: p.WBEpochs},
		BlackBox:      vp.BlackBoxConfig{Iterations: p.CMAIters},
		QuerySamples:  p.QuerySamples,
		Forest:        meta.TrainConfig{Trees: p.ForestTrees},
		Seed:          p.Seed,
	})
}

// susModel is one suspicious model with ground truth.
type susModel struct {
	model    *nn.Model
	backdoor bool
	kind     attack.Kind
	acc, asr float64
}

// buildBattery trains the suspicious-model battery: SusClean clean models
// plus SusPerAttack models per attack config, each an arch with the given
// block count (0: nn's default). Training runs in parallel.
func buildBattery(ctx context.Context, w *world, arch nn.Arch, blocks int, p Params, attacks map[attack.Kind]attack.Config) ([]susModel, error) {
	type job struct {
		kind attack.Kind
		cfg  attack.Config
		seed uint64
	}
	var jobs []job
	for s := 0; s < p.SusClean; s++ {
		jobs = append(jobs, job{kind: clean, seed: uint64(1000 + s)})
	}
	// Deterministic attack order regardless of map iteration.
	for _, kind := range attack.AllKinds() {
		cfg, ok := attacks[kind]
		if !ok {
			continue
		}
		for s := 0; s < p.SusPerAttack; s++ {
			c := cfg
			c.Seed = p.Seed*7919 + uint64(s)
			if c.Target == 0 {
				c.Target = (s * 3) % w.srcTrain.Classes
			}
			jobs = append(jobs, job{kind: kind, cfg: c, seed: uint64(2000 + 37*s)})
		}
	}
	out := make([]susModel, len(jobs))
	err := parallel(len(jobs), func(i int) error {
		jb := jobs[i]
		sm := susModel{backdoor: jb.kind != clean, kind: jb.kind}
		ds := w.srcTrain
		if sm.backdoor {
			poisoned, _, err := attack.Poison(w.srcTrain, jb.cfg, rng.New(p.Seed).Split("sus-poison", i))
			if err != nil {
				return fmt.Errorf("battery %s[%d]: %w", jb.kind, i, err)
			}
			ds = poisoned
		}
		m, err := trainModel(ctx, ds, arch, blocks, p, p.Seed^jb.seed^uint64(i*131))
		if err != nil {
			return fmt.Errorf("battery %s[%d]: %w", jb.kind, i, err)
		}
		sm.model, sm.acc = m, trainer.Evaluate(m, w.srcTest, 0)
		if sm.backdoor {
			if asr, err := attack.ASR(m, w.srcTest, jb.cfg); err == nil {
				sm.asr = asr
			}
		}
		out[i] = sm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// inspect returns det's score of every suspect, inspected in parallel.
func inspect(ctx context.Context, det *bprom.Detector, battery []susModel) ([]float64, error) {
	score := make([]float64, len(battery))
	err := parallel(len(battery), func(i int) error {
		v, err := det.Inspect(ctx, oracle.NewModelOracle(battery[i].model), i)
		score[i] = v.Score
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("exp: inspect: %w", err)
	}
	return score, nil
}

// parallel runs f(0), …, f(n-1) on at most GOMAXPROCS goroutines and
// returns their errors joined.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// clean is the column of the clean suspects' mean accuracy.
const clean attack.Kind = "clean"

// scores maps a metric (AUROC, F1, ACC, ASR, or PACC for prompted accuracy)
// to its value per attack kind.
type scores map[string]map[attack.Kind]float64

// perKind scores each attack's suspects against all the clean ones, the
// paper's protocol: the AUROC and best F1 of score (when given), and the
// mean ACC and ASR. ACC also holds the clean suspects' mean under clean.
func perKind(battery []susModel, score []float64) (scores, error) {
	res := scores{"AUROC": {}, "F1": {}, "ACC": {}, "ASR": {}}
	var cleans []int
	byKind := map[attack.Kind][]int{}
	for i, b := range battery {
		if b.backdoor {
			byKind[b.kind] = append(byKind[b.kind], i)
		} else {
			cleans = append(cleans, i)
		}
	}
	mean := func(idx []int, f func(susModel) float64) float64 {
		s := 0.0
		for _, i := range idx {
			s += f(battery[i])
		}
		return s / float64(len(idx))
	}
	acc := func(b susModel) float64 { return b.acc }
	res["ACC"][clean] = mean(cleans, acc)
	for kind, idx := range byKind {
		res["ACC"][kind] = mean(idx, acc)
		res["ASR"][kind] = mean(idx, func(b susModel) float64 { return b.asr })
		if score == nil {
			continue
		}
		var s []float64
		var labels []bool
		for _, i := range append(slices.Clone(cleans), idx...) {
			s = append(s, score[i])
			labels = append(labels, battery[i].backdoor)
		}
		auc, err := metric.AUROC(s, labels)
		if err != nil {
			return nil, fmt.Errorf("exp: AUROC for %s: %w", kind, err)
		}
		res["AUROC"][kind], res["F1"][kind] = auc, metric.BestF1(s, labels)
	}
	return res, nil
}

// detect runs a detection experiment. For each source it walks the sweep:
// the first step builds the world, the detector and the suspect battery; a
// later step that changes Params rebuilds the world and retrains the
// detector, one that changes the attacks retrains the battery. Every step
// scores the battery per attack kind. A table of ACC and ASR alone trains
// no detector.
func detect(ctx context.Context, p Params, s *spec, t *Table) error {
	steps := s.steps(p)
	arch := cmp.Or(s.arch, nn.ArchConvLite)
	needDet := slices.Contains(s.metrics, "AUROC") || slices.Contains(s.metrics, "F1")
	res := make([][]scores, len(s.sources))
	for i, src := range s.sources {
		res[i] = make([]scores, len(steps))
		var (
			w       *world
			det     *bprom.Detector
			battery []susModel
			score   []float64
			err     error
		)
		for j, st := range steps {
			pp := p
			if st.params != nil {
				st.params(&pp)
			}
			if w == nil || st.params != nil {
				if w, err = buildWorld(pp, src, cmp.Or(s.external, data.STL10), s.world); err != nil {
					return err
				}
				if needDet {
					if det, err = trainDetector(ctx, w, arch, s.blocks, pp, attack.Config{}); err != nil {
						return err
					}
				}
			}
			if battery == nil || st.attack != nil {
				if battery, err = buildBattery(ctx, w, cmp.Or(s.susArch, arch), s.blocks, pp, s.configs(src, st)); err != nil {
					return err
				}
			}
			if det != nil {
				if score, err = inspect(ctx, det, battery); err != nil {
					return err
				}
			}
			if res[i][j], err = perKind(battery, score); err != nil {
				return err
			}
		}
	}
	s.render(t, res, steps)
	return nil
}

// steps returns s's sweep at p, or one step that changes nothing.
func (s *spec) steps(p Params) []step {
	if s.sweep == nil {
		return []step{{}}
	}
	return s.sweep(p)
}

// configs returns the suspects' attack configs on src at step st.
func (s *spec) configs(src string, st step) map[attack.Kind]attack.Config {
	cfgs := attackConfigsFor(src, s.kinds)
	for k, c := range cfgs {
		if s.rate > 0 {
			c.PoisonRate = s.rate
		}
		if st.attack != nil {
			st.attack(&c)
		}
		cfgs[k] = c
	}
	return cfgs
}

// axis is one dimension of a result grid.
type axis int

// The axes, in the order columns run over them.
const (
	bySource axis = iota
	byStep
	byKind
	byMetric
)

// render adds the rows of res, indexed [source][step], to t. The rows run
// over s.rows in that order, each led by its labels on those axes; the
// columns run over the other axes in axis order. A cell with no value
// reads "-". When the header ends in AVG, each row ends in its mean over
// the kinds.
func (s *spec) render(t *Table, res [][]scores, steps []step) {
	labels := [4][]string{s.sources, nil, names(s.kinds), s.metrics}
	for _, st := range steps {
		labels[byStep] = append(labels[byStep], st.label)
	}
	var cols []axis
	for a := bySource; a <= byMetric; a++ {
		if !slices.Contains(s.rows, a) {
			cols = append(cols, a)
		}
	}
	var ix [4]int
	values := func() map[attack.Kind]float64 { return res[ix[bySource]][ix[byStep]][s.metrics[ix[byMetric]]] }
	each(&ix, labels, s.rows, func() {
		var row []string
		for _, a := range s.rows {
			row = append(row, labels[a][ix[a]])
		}
		each(&ix, labels, cols, func() {
			if v, ok := values()[s.kinds[ix[byKind]]]; ok {
				row = append(row, f3(v))
			} else {
				row = append(row, "-")
			}
		})
		if t.Header[len(t.Header)-1] == "AVG" {
			row = append(row, f3(avg(values(), s.kinds)))
		}
		t.AddRow(row...)
	})
}

// each calls f once per combination of indices on axes, the first axis
// outermost, and leaves those indices at 0.
func each(ix *[4]int, labels [4][]string, axes []axis, f func()) {
	if len(axes) == 0 {
		f()
		return
	}
	a := axes[0]
	for ix[a] = 0; ix[a] < len(labels[a]); ix[a]++ {
		each(ix, labels, axes[1:], f)
	}
	ix[a] = 0
}

// names returns the kinds as strings.
func names(kinds []attack.Kind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = string(k)
	}
	return out
}

// avg returns the mean of the map's values in kind order.
func avg(m map[attack.Kind]float64, kinds []attack.Kind) float64 {
	s, n := 0.0, 0
	for _, k := range kinds {
		if v, ok := m[k]; ok {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
