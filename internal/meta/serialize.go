package meta

import "bprom/internal/binio"

// Binary forest section of the detector artifact: feature count, ensemble
// size, the in-bag bootstrap matrix (so OOBScores keeps working on a loaded
// forest), then every tree as a tag-prefixed recursive node list — the same
// append-only tag discipline as the nn checkpoint format. The section has no
// magic of its own; the enclosing artifact (internal/bprom/serialize.go)
// carries magic and version.

// Node tags. Values are stable once released — append only.
const (
	tagLeaf byte = iota + 1
	tagSplit
)

// Save writes the forest section to w.
func (f *Forest) Save(w *binio.Writer) {
	w.U32(uint32(f.NumFeatures))
	w.U32(uint32(len(f.Trees)))
	rows := 0
	if len(f.inBag) > 0 {
		rows = len(f.inBag[0])
	}
	w.U32(uint32(rows))
	for t, tree := range f.Trees {
		for i := 0; i < rows; i++ {
			w.Bool(f.inBag[t][i])
		}
		writeNode(w, tree)
	}
}

// Load reads a forest section previously written by Save.
func Load(r *binio.Reader) (*Forest, error) {
	numFeatures, trees, rows := r.U32(), r.U32(), r.U32()
	if trees > 1<<20 {
		r.Failf("meta: implausible tree count %d", trees)
	}
	if rows > 1<<20 {
		r.Failf("meta: implausible training-row count %d", rows)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	f := &Forest{
		NumFeatures: int(numFeatures),
		Trees:       make([]*node, trees),
		inBag:       make([][]bool, trees),
	}
	for t := 0; t < len(f.Trees) && r.Err() == nil; t++ {
		f.inBag[t] = make([]bool, rows)
		for i := range f.inBag[t] {
			f.inBag[t][i] = r.Bool()
		}
		f.Trees[t] = readNode(r, 0, int(numFeatures))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

func writeNode(w *binio.Writer, n *node) {
	if n.feature < 0 {
		w.U8(tagLeaf)
		w.F64(n.prob)
		return
	}
	w.U8(tagSplit)
	w.U32(uint32(n.feature))
	w.F64(n.threshold)
	writeNode(w, n.left)
	writeNode(w, n.right)
}

// maxTreeDepth caps decode recursion; trained trees are depth-bounded by
// TrainConfig.MaxDepth, so anything deeper is a corrupt artifact.
const maxTreeDepth = 64

func readNode(r *binio.Reader, depth, numFeatures int) *node {
	if depth > maxTreeDepth {
		r.Failf("meta: tree deeper than %d: corrupt artifact", maxTreeDepth)
		return nil
	}
	switch tag := r.U8(); tag {
	case tagLeaf:
		return &node{feature: -1, prob: r.F64()}
	case tagSplit:
		feature := int(r.U32())
		// An out-of-range split feature would panic Score mid-audit;
		// reject it at load time like every other corruption.
		if feature >= numFeatures {
			r.Failf("meta: split on feature %d of %d: corrupt artifact", feature, numFeatures)
			return nil
		}
		return &node{feature: feature, threshold: r.F64(), left: readNode(r, depth+1, numFeatures), right: readNode(r, depth+1, numFeatures)}
	default:
		r.Failf("meta: unknown node tag %d", tag)
		return nil
	}
}
