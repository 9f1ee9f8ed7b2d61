package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bprom/internal/attack"
	"bprom/internal/data"
)

func TestParamsForScales(t *testing.T) {
	for _, s := range []Scale{Tiny, Small, Full} {
		p, err := ParamsFor(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.Scale != s {
			t.Fatalf("ParamsFor(%s).Scale = %s", s, p.Scale)
		}
		if p.SrcTrain <= 0 || p.Epochs <= 0 || p.ShadowClean <= 0 {
			t.Fatalf("ParamsFor(%s) has zero fields: %+v", s, p)
		}
	}
	tiny, full := mustParams(t, Tiny), mustParams(t, Full)
	if tiny.SrcTrain >= full.SrcTrain || tiny.Epochs >= full.Epochs {
		t.Fatal("tiny must be smaller than full")
	}
	for _, s := range []Scale{"huge", ""} {
		if _, err := ParamsFor(s); err == nil || !strings.Contains(err.Error(), "tiny|small|full") {
			t.Fatalf("ParamsFor(%q) error = %v, want one naming tiny|small|full", s, err)
		}
	}
}

func mustParams(t *testing.T, s Scale) Params {
	t.Helper()
	p, err := ParamsFor(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCapNote checks that only a scale that caps class counts notes a cap.
func TestCapNote(t *testing.T) {
	if n := capNote(mustParams(t, Full), "ImageNet"); n != nil {
		t.Fatalf("full scale caps nothing, got note %q", n)
	}
	want := []string{"ImageNet classes capped at 16 at scale tiny"}
	if n := capNote(mustParams(t, Tiny), "ImageNet"); !slices.Equal(n, want) {
		t.Fatalf("tiny note %q, want %q", n, want)
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
	ids := IDs()
	if len(ids) != 33 {
		t.Fatalf("%d experiments, want 33", len(ids))
	}
	if len(slices.Compact(slices.Sorted(slices.Values(ids)))) != len(ids) {
		t.Fatalf("duplicate ids in %v", ids)
	}
	if !slices.Equal(ids[:3], []string{"table1", "figure3", "table2"}) {
		t.Fatalf("ids start %v, want the paper's order table1, figure3, table2", ids[:3])
	}
	// Every table 1..26 plus both figures and the training-time report.
	for i := 1; i <= 26; i++ {
		if id := "table" + strconv.Itoa(i); !slices.Contains(ids, id) {
			t.Errorf("registry missing %s", id)
		}
	}
	for _, id := range []string{"figure3", "figure5", "training-time"} {
		if !slices.Contains(ids, id) {
			t.Errorf("registry missing %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run(context.Background(), "table999", mustParams(t, Tiny)); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestBuildWorldCapsClasses(t *testing.T) {
	p := mustParams(t, Tiny)
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

// tableDigests pins the SHA-256 of every table's Render() at microParams
// (tableDigest drops training-time's wall-time column). A refactor of the
// runners must leave every digest as it is; a change to a table's numbers
// or layout changes its digest on purpose.
var tableDigests = map[string]string{
	"ablation-optimizer":  "764c3f08a314531e4f2fb1a0c73ad87f2352379011f65277750aa9117edab3f1",
	"ablation-promptsize": "9cb1654bcb23f15e53893f75eb0456f5d13a7c738a10afd96c3df0a82432bab3",
	"ablation-querycount": "0867cb2ed61e95e5ae743a613c85d168edb0282695097e587ca50f8118280f6c",
	"figure3":             "001cc886d977cba94466f6c582a2d6baaff8edda90e6e0b7c1b0bb21a7f931e9",
	"figure5":             "ec9a694620f26ea8ab686d4088dee1af973795affb4eee3e6d8c5fbab84f9a08",
	"limitation-alltoall": "0a6251d24b35435f276891f63136a36f70a73435cbdbb13ded5ce344a9c85147",
	"table1":              "b462bec2925fce9adcf8a672c60fa3fbeca85cab62c064990e3ced460665d771",
	"table10":             "625e4ada60b8921782aeedb44cadab3667d01297b0208f8e49d63f550ffc5a86",
	"table11":             "1dc8c141c0b2be8542d3a91916869402030dd68a07acf6843331bc84c0cbe830",
	"table12":             "ee84db9d960084722584755b60ad81fd63267fa2b3cd24b623992be1b4a68fb8",
	"table13":             "450a84687eb75edcf8066c39b907176cbe5e0a415a0ce57b5f36486b04500b28",
	"table14":             "b5f3ab01a61e9c3a0fa50ce32ad5b32fa186fb5be2e55360f1e173ac18823397",
	"table15":             "696c8b2ec2791771c387325ab01cb44022ffd4db69cd8baa78e61c3bdbdb5888",
	"table16":             "9310f0ccefb27ddecbe50da1f96c7ff8922dc453272fb1318f40428fe8614dfe",
	"table17":             "434d3a7d363dd56c012cf6c72fc736f9dd4ad6ef15ca5745e4961fb719620637",
	"table18":             "dd41f9d09869bd47ff299a65a198c0fbfe8d8f08b80defbbae37760b907afde9",
	"table19":             "3d2fcdc9e71dd27e92be7c8b2061c267248720ef3f435f8414a11ec03b93154c",
	"table2":              "83faafc2d06bd3828241393a63bdb527c7d5e5e5c26c0b66250ae5b2ec3f6468",
	"table20":             "0d5d8535548cc91d8bd36f76fda7e9c27385eb531bdaa89ea46c3094d56200ee",
	"table21":             "7fd34d2fe97dcf5a03def4a27ab92bf74c0534abae7712170aa6ff1c3129d7ed",
	"table22":             "f1b55bc6bc52ba44b01c289bc1ec5f056ef5a11a008f1302cddff2260c9d3ddc",
	"table23":             "0ddb1e0104ae0c58dcc47112a6f7d5117d50dcd773a1255b47eb2de1d8c8ca56",
	"table24":             "ff4476abd43791d3206d4baf8a86cd1b0377972753e074986dc401c44e9104ce",
	"table25":             "656e2af417952a52f97d8c17b678b8170ae881a0faf84ca61dd2a3ec6dca7e88",
	"table26":             "e5b3cca457bb0bb24a770c4b2804dd28fcfed2a96aba2702a881c23aa4e0b699",
	"table3":              "ad99548040aabaaaafaa90dd18b3c22da31952595d3855bc0d337905589dc396",
	"table4":              "f6cfb8f059ebbfafb6caf020767babac6b2697b593fd68d7280d4d4ec58cdf69",
	"table5":              "a6be083cf6e6c7c715d0f2deec68d15d210b808a2485b2d86888bde72de1180c",
	"table6":              "7b4020743d9e76435f9738651ce2ccc47b9348bf3f0ea93e13d7c84b188a1206",
	"table7":              "e3eaf879178b4ed6e3ef51a32ee6660c49d16d1da8e5e3cbf99057be4ca6a6d5",
	"table8":              "95abeae55ed6d85af537e7beb3c7ab0f37b87157385331ca78cc74ae409da08b",
	"table9":              "24c17643ab271f862eede38447016705b0940e48604b9d70c72d87b39c9e347e",
	"training-time":       "fc84773e07d7c65cd841216ef0f5a2cf57cd4e200d0225f98ebbbd08528ba04c",
}

// tinyDigests pins the runners whose sizes branch on Scale == Tiny, run at
// microParams with Scale set to Tiny.
var tinyDigests = map[string]string{
	"table7":        "ad3c947aa36b6a66750841bf24d9c1bec63e7c4de24d309a87f5f9186ce63fb9",
	"table23":       "ec9a02b7a795fba21efeaa008c643cd3dbf95f55f7fc878d411324c5f8807ccc",
	"training-time": "66a5ec2c1179c623c9eb0e23797df99843fd851e8ea2d70c028625e76a8fe991",
}

// tableDigest is the SHA-256 of tab.Render() without its wall-time column,
// the one cell a runner does not determine.
func tableDigest(tab *Table) string {
	c := *tab
	if i := slices.Index(tab.Header, "wall-time"); i >= 0 {
		c.Header = slices.Delete(slices.Clone(tab.Header), i, i+1)
		c.Rows = nil
		for _, row := range tab.Rows {
			c.Rows = append(c.Rows, slices.Delete(slices.Clone(row), i, i+1))
		}
	}
	sum := sha256.Sum256([]byte(c.Render()))
	return hex.EncodeToString(sum[:])
}

// TestRunners runs every registered experiment once at microParams, checks
// its table's shape (at least one row, every row as wide as the header, no
// empty and no NaN cell) and its digest. table13 and table2 get a check of
// their own on top. The runners that branch on Scale == Tiny run once more
// at Tiny.
func TestRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the models of every table")
	}
	tiny := microParams
	tiny.Scale = Tiny
	type run struct {
		name, id string
		p        Params
		want     string
	}
	var runs []run
	for _, id := range IDs() {
		runs = append(runs, run{id, id, microParams, tableDigests[id]})
	}
	for _, id := range []string{"table7", "table23", "training-time"} {
		runs = append(runs, run{id + "-tiny", id, tiny, tinyDigests[id]})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			tab, err := Run(context.Background(), r.id, r.p)
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
			if got := tableDigest(tab); got != r.want {
				t.Errorf("digest %s, want %s; table:\n%s", got, r.want, tab.Render())
			}
			switch r.id {
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
