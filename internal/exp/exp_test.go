package exp

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"bprom/internal/attack"
	"bprom/internal/data"
)

func TestParamsForScales(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Full} {
		p := ParamsFor(s)
		if p.Scale != s {
			t.Fatalf("ParamsFor(%s).Scale = %s", s, p.Scale)
		}
		if p.SrcTrain <= 0 || p.Epochs <= 0 || p.ShadowClean <= 0 {
			t.Fatalf("ParamsFor(%s) has zero fields: %+v", s, p)
		}
	}
	tiny, full := ParamsFor(Tiny), ParamsFor(Full)
	if tiny.SrcTrain >= full.SrcTrain || tiny.Epochs >= full.Epochs {
		t.Fatal("tiny must be smaller than full")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Caption: "demo",
		Header: []string{"a", "bb"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	out := tab.Render()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Fatalf("render missing content:\n%s", out)
	}
	csv := tab.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || lines[0] != "a,bb" || lines[2] != "333,4" {
		t.Fatalf("csv wrong:\n%s", csv)
	}
}

func TestRegistryCoversPaperExperiments(t *testing.T) {
	reg := Registry()
	// Every table 1..26 plus both figures and the training-time report.
	for i := 1; i <= 26; i++ {
		id := "table" + strconv.Itoa(i)
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
	for _, id := range []string{"figure3", "figure5", "training-time"} {
		if _, ok := reg[id]; !ok {
			t.Errorf("registry missing %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "table999", ParamsFor(Tiny)); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestBuildWorldCapsClasses(t *testing.T) {
	p := ParamsFor(Tiny)
	w, err := buildWorld(p, data.TinyImageNet, data.STL10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.srcTrain.Classes != p.MaxClasses {
		t.Fatalf("Tiny-ImageNet classes %d, want cap %d", w.srcTrain.Classes, p.MaxClasses)
	}
	if _, err := buildWorld(p, "bogus", data.STL10, 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

// microParams sizes every runner below Tiny: enough training for each table
// to be built end to end, far too little for its numbers to mean anything.
var microParams = Params{
	SrcTrain: 8, SrcTest: 30, TgtTrain: 4, TgtTest: 4,
	Epochs: 2, Hidden: 8, CMAIters: 3, WBEpochs: 1, PromptFrac: 0.83,
	ShadowClean: 2, ShadowBackdoor: 2, SusClean: 2, SusPerAttack: 1,
	ReservedFrac: 0.10, QuerySamples: 8, ForestTrees: 10, MaxClasses: 10,
	InputAUROCSamples: 8, Seed: 1,
}

// TestRunners runs every registered experiment once at microParams and
// checks its table's shape: at least one row, every row as wide as the
// header, no empty and no NaN cell. table13 and table2 get a check of their
// own on top.
func TestRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the models of every table")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(context.Background(), id, microParams)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
				}
				for j, cell := range row {
					if cell == "" || strings.Contains(cell, "NaN") {
						t.Errorf("row %d cell %d (%s) is %q", i, j, tab.Header[j], cell)
					}
				}
			}
			switch id {
			case "table13":
				if len(tab.Rows) != 14 { // 7 attacks x 2 datasets
					t.Fatalf("table13 has %d rows, want 14", len(tab.Rows))
				}
			case "table2":
				for _, row := range tab.Rows {
					for _, cell := range row[1:] {
						if v, err := strconv.ParseFloat(cell, 64); err != nil || v < 0 || v > 1 {
							t.Fatalf("table2 cell %q not a valid accuracy", cell)
						}
					}
				}
			}
		})
	}
}

func TestAttackConfigsForCoversKinds(t *testing.T) {
	kinds := table5Attacks()
	cfgs := attackConfigsFor(data.CIFAR10, kinds)
	if len(cfgs) != len(kinds) {
		t.Fatalf("%d configs for %d kinds", len(cfgs), len(kinds))
	}
	for _, k := range kinds {
		if cfgs[k].Kind != k {
			t.Fatalf("config for %s has kind %s", k, cfgs[k].Kind)
		}
	}
}

func TestAvgHelper(t *testing.T) {
	m := map[attack.Kind]float64{attack.BadNets: 1, attack.Blend: 0}
	if got := avg(m, []attack.Kind{attack.BadNets, attack.Blend}); got != 0.5 {
		t.Fatalf("avg = %v", got)
	}
	if got := avg(m, []attack.Kind{attack.Trojan}); got != 0 {
		t.Fatalf("avg over missing kinds = %v", got)
	}
}
