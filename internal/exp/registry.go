package exp

import (
	"context"
	"fmt"
	"sort"
)

// Runner regenerates one table or figure.
type Runner func(ctx context.Context, p Params) (*Table, error)

// Registry maps experiment IDs to their runners, in the paper's order.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":        RunTable1,
		"figure3":       RunFigure3,
		"table2":        RunTable2,
		"table3":        RunTable3,
		"table4":        RunTable4,
		"table5":        RunTable5,
		"table6":        RunTable6,
		"training-time": RunTrainingTime,
		"table7":        RunTable7,
		"table8":        RunTable8,
		"table9":        RunTable9,
		"table10":       RunTable10,
		"table11":       RunTable11,
		"table12":       RunTable12,
		"table13":       RunTable13,
		"table14":       RunTable14,
		"table15":       RunTable15,
		"table16":       RunTable16,
		"table17":       RunTable17,
		"table18":       RunTable18,
		"table19":       RunTable19,
		"table20":       RunTable20,
		"table21":       RunTable21,
		"table22":       RunTable22,
		"table23":       RunTable23,
		"table24":       RunTable24,
		"table25":       RunTable25,
		"table26":       RunTable26,
		"figure5":       RunFigure5,
		// Ablations and the paper's stated limitation (beyond its tables).
		"limitation-alltoall": RunLimitationAllToAll,
		"ablation-optimizer":  RunAblationOptimizer,
		"ablation-promptsize": RunAblationPromptSize,
		"ablation-querycount": RunAblationQueryCount,
	}
}

// IDs returns the registered experiment IDs sorted for stable iteration.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(ctx context.Context, id string, p Params) (*Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(ctx, p)
}
