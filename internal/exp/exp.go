// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (specs lists them in the paper's order;
// cmd/tables runs them) at three scales. "tiny" is cmd/tables' default,
// "small" sits between, "full" runs the largest CPU-feasible configuration.
// The package's tests run every experiment at a scale below tiny and pin
// each table's bits.
package exp

import (
	"fmt"
	"strings"

	"bprom/internal/data"
	"bprom/internal/rng"
)

// Scale selects an experiment size.
type Scale string

// The supported scales.
const (
	Tiny  Scale = "tiny"
	Small Scale = "small"
	Full  Scale = "full"
)

// Params sizes every experiment. All counts are per class unless noted.
type Params struct {
	Scale Scale

	SrcTrain, SrcTest int // source-domain samples per class
	TgtTrain, TgtTest int // external-domain (DT) samples per class

	Epochs     int // suspicious/shadow training epochs
	Hidden     int
	CMAIters   int // black-box prompting budget
	WBEpochs   int // white-box prompting epochs
	PromptFrac float64

	ShadowClean, ShadowBackdoor int
	SusClean, SusPerAttack      int // suspicious-model battery sizes

	ReservedFrac float64 // DS fraction of the source test set
	QuerySamples int
	ForestTrees  int

	// MaxClasses caps class counts of the very large datasets
	// (Tiny-ImageNet: 200, ImageNet: 1000) so CPU training stays feasible;
	// 0 = no cap. A substitution for the paper's full label spaces.
	MaxClasses int

	// InputAUROCSamples is the benign/triggered sample count for
	// input-level detector evaluation.
	InputAUROCSamples int

	Seed uint64
}

// ParamsFor returns the preset for a scale, or an error naming the
// supported ones.
func ParamsFor(scale Scale) (Params, error) {
	switch scale {
	case Tiny:
		// Sized so all 33 experiments (`tables -all`) complete in roughly
		// ten minutes on a laptop-class CPU.
		return Params{
			Scale: Tiny, SrcTrain: 22, SrcTest: 80, TgtTrain: 10, TgtTest: 8,
			Epochs: 8, Hidden: 24, CMAIters: 15, WBEpochs: 5, PromptFrac: 0.83,
			ShadowClean: 3, ShadowBackdoor: 3, SusClean: 2, SusPerAttack: 1,
			ReservedFrac: 0.10, QuerySamples: 16, ForestTrees: 100,
			MaxClasses: 16, InputAUROCSamples: 24, Seed: 1,
		}, nil
	case Small:
		return Params{
			Scale: Small, SrcTrain: 50, SrcTest: 150, TgtTrain: 20, TgtTest: 10,
			Epochs: 15, Hidden: 28, CMAIters: 40, WBEpochs: 8, PromptFrac: 0.83,
			ShadowClean: 8, ShadowBackdoor: 8, SusClean: 6, SusPerAttack: 2,
			ReservedFrac: 0.10, QuerySamples: 30, ForestTrees: 200,
			MaxClasses: 40, InputAUROCSamples: 40, Seed: 1,
		}, nil
	case Full:
		return Params{
			Scale: Full, SrcTrain: 80, SrcTest: 200, TgtTrain: 25, TgtTest: 15,
			Epochs: 20, Hidden: 32, CMAIters: 60, WBEpochs: 12, PromptFrac: 0.83,
			ShadowClean: 20, ShadowBackdoor: 20, SusClean: 10, SusPerAttack: 4,
			ReservedFrac: 0.10, QuerySamples: 30, ForestTrees: 300,
			MaxClasses: 0, InputAUROCSamples: 80, Seed: 1,
		}, nil
	}
	return Params{}, fmt.Errorf("exp: unknown scale %q (want tiny|small|full)", scale)
}

// capNote notes p's class cap on a dataset's table; none when p caps
// nothing.
func capNote(p Params, dataset string) []string {
	if p.MaxClasses == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s classes capped at %d at scale %s", dataset, p.MaxClasses, p.Scale)}
}

// Table is one reproduced table/figure: rendered rows plus the raw cells.
type Table struct {
	ID      string
	Caption string
	Header  []string
	Rows    [][]string
	// Notes records scale caveats and substitutions, printed under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Caption)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV returns a comma-separated rendering (quotes are not needed for the
// numeric/identifier cells these tables hold).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// world bundles the datasets one experiment needs.
type world struct {
	srcTrain, srcTest *data.Dataset // suspicious-model domain
	reserved          *data.Dataset // DS
	tgtTrain, tgtTest *data.Dataset // DT splits
}

// buildWorld generates the datasets for (source, external) at the given
// scale. Class counts of very large datasets are capped per Params.
func buildWorld(p Params, source, external string, seed uint64) (*world, error) {
	srcSpec, ok := data.SpecFor(source)
	if !ok {
		return nil, fmt.Errorf("exp: unknown source dataset %q", source)
	}
	extSpec, ok := data.SpecFor(external)
	if !ok {
		return nil, fmt.Errorf("exp: unknown external dataset %q", external)
	}
	if p.MaxClasses > 0 && srcSpec.Classes > p.MaxClasses {
		srcSpec.Classes = p.MaxClasses
	}
	if p.MaxClasses > 0 && extSpec.Classes > p.MaxClasses {
		extSpec.Classes = p.MaxClasses
	}
	r := rng.New(p.Seed).Split("world", int(seed))
	srcGen := data.NewGenerator(srcSpec, p.Seed^0x5151)
	srcTrain, srcTest := srcGen.GenerateSplit(p.SrcTrain, p.SrcTest, r.Split("src"))
	tgtGen := data.NewGenerator(extSpec, p.Seed^0xA7A7)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(p.TgtTrain, p.TgtTest, r.Split("tgt"))
	return &world{
		srcTrain: srcTrain,
		srcTest:  srcTest,
		reserved: srcTest.Reserve(p.ReservedFrac, r.Split("reserve")),
		tgtTrain: tgtTrain,
		tgtTest:  tgtTest,
	}, nil
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
