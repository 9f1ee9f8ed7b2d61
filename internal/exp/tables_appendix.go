package exp

import (
	"context"
	"fmt"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/nn"
)

// bpromOnly runs the BPROM-only detection protocol (used by the appendix
// tables that report BPROM under varied settings).
func bpromOnly(ctx context.Context, p Params, source, external string, arch, susArch nn.Arch, kinds []attack.Kind, worldSeed uint64) (*detectionResult, error) {
	w, err := buildWorld(p, source, external, worldSeed)
	if err != nil {
		return nil, err
	}
	det, err := trainDetector(ctx, w, arch, 0, p, attack.Config{})
	if err != nil {
		return nil, err
	}
	battery, err := buildBattery(ctx, w, susArch, 0, p, attackConfigsFor(source, kinds))
	if err != nil {
		return nil, err
	}
	return runDetection(ctx, det, battery)
}

var appendixKinds = []attack.Kind{attack.BadNets, attack.Blend, attack.Trojan,
	attack.WaNet, attack.Dynamic, attack.AdapBlend, attack.AdapPatch}

// RunTable16 reproduces Table 16: F1 scores of BPROM at DS sizes 10/5/1%.
func RunTable16(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "table16",
		Caption: "F1 of BPROM at reserved-set sizes (primary architecture)",
		Header:  append([]string{"variant", "dataset"}, kindsHeader(appendixKinds)...),
	}
	for _, frac := range []float64{0.10, 0.05} {
		pp := p
		pp.ReservedFrac = frac
		for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
			res, err := bpromOnly(ctx, pp, dsName, data.STL10, nn.ArchConvLite, nn.ArchConvLite, appendixKinds, 16)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("bprom (%d%%)", int(frac*100)), dsName}
			for _, k := range appendixKinds {
				row = append(row, f3(res.F1[k]))
			}
			t.AddRow(append(row, f3(avg(res.F1, appendixKinds)))...)
		}
	}
	return t, nil
}

// RunTable17 reproduces Table 17: AUROC on MobileNetLite.
func RunTable17(ctx context.Context, p Params) (*Table, error) {
	return archTable(ctx, p, "table17", "AUROC on MobileNetLite", nn.ArchMobileNetLite, false)
}

// RunTable18 reproduces Table 18: F1 on MobileNetLite.
func RunTable18(ctx context.Context, p Params) (*Table, error) {
	return archTable(ctx, p, "table18", "F1 on MobileNetLite", nn.ArchMobileNetLite, true)
}

func archTable(ctx context.Context, p Params, id, caption string, arch nn.Arch, useF1 bool) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: caption,
		Header:  append([]string{"dataset"}, kindsHeader(appendixKinds)...),
	}
	for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
		res, err := bpromOnly(ctx, p, dsName, data.STL10, arch, arch, appendixKinds, 17)
		if err != nil {
			return nil, err
		}
		vals := res.AUROC
		if useF1 {
			vals = res.F1
		}
		row := []string{dsName}
		for _, k := range appendixKinds {
			row = append(row, f3(vals[k]))
		}
		t.AddRow(append(row, f3(avg(vals, appendixKinds)))...)
	}
	return t, nil
}

// RunTable19 reproduces Table 19: external dataset DT changed to SVHN with
// DS = GTSRB.
func RunTable19(ctx context.Context, p Params) (*Table, error) {
	return externalDatasetTable(ctx, p, "table19", data.GTSRB)
}

// RunTable20 reproduces Table 20: DT = SVHN with DS = CIFAR-10.
func RunTable20(ctx context.Context, p Params) (*Table, error) {
	return externalDatasetTable(ctx, p, "table20", data.CIFAR10)
}

func externalDatasetTable(ctx context.Context, p Params, id, source string) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: fmt.Sprintf("DT changed to SVHN, DS = %s", source),
		Header:  append([]string{"metric"}, kindsHeader(appendixKinds)...),
	}
	res, err := bpromOnly(ctx, p, source, data.SVHN, nn.ArchConvLite, nn.ArchConvLite, appendixKinds, 19)
	if err != nil {
		return nil, err
	}
	f1Row, aucRow := []string{"F1"}, []string{"AUROC"}
	for _, k := range appendixKinds {
		f1Row = append(f1Row, f3(res.F1[k]))
		aucRow = append(aucRow, f3(res.AUROC[k]))
	}
	t.AddRow(append(f1Row, f3(avg(res.F1, appendixKinds)))...)
	t.AddRow(append(aucRow, f3(avg(res.AUROC, appendixKinds)))...)
	return t, nil
}

// RunTable21 reproduces Table 21: DS = CIFAR-100 (class-count mismatch with
// the 10-class DT).
func RunTable21(ctx context.Context, p Params) (*Table, error) {
	kinds := []attack.Kind{attack.BadNets, attack.Blend, attack.Trojan, attack.WaNet, attack.AdapBlend, attack.AdapPatch}
	t := &Table{
		ID:      "table21",
		Caption: "DS = CIFAR-100 (class-count mismatch), BPROM AUROC",
		Header:  append([]string{"defense"}, kindsHeader(kinds)...),
	}
	res, err := bpromOnly(ctx, p, data.CIFAR100, data.STL10, nn.ArchConvLite, nn.ArchConvLite, kinds, 21)
	if err != nil {
		return nil, err
	}
	row := []string{fmt.Sprintf("bprom (%d%%)", int(p.ReservedFrac*100))}
	for _, k := range kinds {
		row = append(row, f3(res.AUROC[k]))
	}
	t.AddRow(append(row, f3(avg(res.AUROC, kinds)))...)
	if p.MaxClasses > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("CIFAR-100 classes capped at %d at scale %s", p.MaxClasses, p.Scale))
	}
	return t, nil
}

// RunTable22 reproduces Table 22: feature-based backdoors (Refool, BPP,
// Poison Ink).
func RunTable22(ctx context.Context, p Params) (*Table, error) {
	kinds := []attack.Kind{attack.Refool, attack.BPP, attack.PoisonInk}
	t := &Table{
		ID:      "table22",
		Caption: "Feature-based backdoors on CIFAR-10",
		Header:  []string{"attack", "F1", "AUROC"},
	}
	res, err := bpromOnly(ctx, p, data.CIFAR10, data.STL10, nn.ArchConvLite, nn.ArchConvLite, kinds, 22)
	if err != nil {
		return nil, err
	}
	for _, k := range kinds {
		t.AddRow(string(k), f3(res.F1[k]), f3(res.AUROC[k]))
	}
	return t, nil
}

// RunTable23 reproduces Table 23: AUROC across reserved-set sizes 1/5/10%.
func RunTable23(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "table23",
		Caption: "AUROC vs reserved clean dataset size",
		Header:  append([]string{"variant", "dataset"}, kindsHeader(appendixKinds)...),
	}
	fracs := []float64{0.10, 0.05}
	if p.Scale != Tiny {
		// 1% of the synthetic test sets is too few samples to train any
		// shadow model below the small scale.
		fracs = []float64{0.10, 0.05, 0.02}
	}
	for _, frac := range fracs {
		pp := p
		pp.ReservedFrac = frac
		for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
			res, err := bpromOnly(ctx, pp, dsName, data.STL10, nn.ArchConvLite, nn.ArchConvLite, appendixKinds, 23)
			if err != nil {
				return nil, err
			}
			row := []string{fmt.Sprintf("bprom (%g%%)", frac*100), dsName}
			for _, k := range appendixKinds {
				row = append(row, f3(res.AUROC[k]))
			}
			t.AddRow(append(row, f3(avg(res.AUROC, appendixKinds)))...)
		}
	}
	return t, nil
}

// RunTable24 reproduces Table 24: the MobileViT analogue (VitLite, 2 blocks).
func RunTable24(ctx context.Context, p Params) (*Table, error) {
	return vitTable(ctx, p, "table24", "AUROC on VitLite (MobileViT analogue)", 2)
}

// RunTable25 reproduces Table 25: the Swin analogue (VitLite, 3 blocks).
func RunTable25(ctx context.Context, p Params) (*Table, error) {
	return vitTable(ctx, p, "table25", "AUROC on deeper VitLite (Swin analogue)", 3)
}

func vitTable(ctx context.Context, p Params, id, caption string, blocks int) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: caption,
		Header:  append([]string{"dataset"}, kindsHeader(appendixKinds)...),
	}
	for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
		w, err := buildWorld(p, dsName, data.STL10, 24)
		if err != nil {
			return nil, err
		}
		det, err := trainDetector(ctx, w, nn.ArchVitLite, blocks, p, attack.Config{})
		if err != nil {
			return nil, err
		}
		battery, err := buildBattery(ctx, w, nn.ArchVitLite, blocks, p, attackConfigsFor(dsName, appendixKinds))
		if err != nil {
			return nil, err
		}
		res, err := runDetection(ctx, det, battery)
		if err != nil {
			return nil, err
		}
		row := []string{dsName}
		for _, k := range appendixKinds {
			row = append(row, f3(res.AUROC[k]))
		}
		t.AddRow(append(row, f3(avg(res.AUROC, appendixKinds)))...)
	}
	return t, nil
}

// RunTable26 reproduces Table 26: the ImageNet-scale analogue.
func RunTable26(ctx context.Context, p Params) (*Table, error) {
	kinds := []attack.Kind{attack.BadNets, attack.Trojan, attack.AdapBlend, attack.AdapPatch}
	t := &Table{
		ID:      "table26",
		Caption: "ImageNet-scale analogue, BPROM AUROC",
		Header:  append([]string{"defense"}, kindsHeader(kinds)...),
	}
	res, err := bpromOnly(ctx, p, data.ImageNet, data.STL10, nn.ArchConvLite, nn.ArchConvLite, kinds, 26)
	if err != nil {
		return nil, err
	}
	row := []string{fmt.Sprintf("bprom (%d%%)", int(p.ReservedFrac*100))}
	for _, k := range kinds {
		row = append(row, f3(res.AUROC[k]))
	}
	t.AddRow(append(row, f3(avg(res.AUROC, kinds)))...)
	if p.MaxClasses > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("ImageNet classes capped at %d at scale %s", p.MaxClasses, p.Scale))
	}
	return t, nil
}
