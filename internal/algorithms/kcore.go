package algorithms

import "chgraph/internal/bitset"

// KCore computes the k-core decomposition of the hypergraph by iterative
// peeling: for k = 1, 2, ..., vertices whose remaining degree (count of
// alive incident hyperedges) drops below k are removed; a hyperedge dies
// when fewer than two of its vertices remain. The coreness of a vertex is
// the largest k at which it survives. VertexVal holds the remaining degree
// during the run; HyperedgeVal holds the remaining incident-vertex count.
type KCore struct {
	// KMax caps the decomposition depth.
	KMax int

	aliveV []bool
	aliveH []bool
	curK   int
	// Coreness is the per-vertex result, valid after the run.
	Coreness []float64
}

// NewKCore returns a k-core instance peeling up to kMax.
func NewKCore(kMax int) *KCore {
	if kMax < 1 {
		kMax = 1
	}
	return &KCore{KMax: kMax}
}

// Name implements Algorithm.
func (*KCore) Name() string { return "k-core" }

// MaxIterations implements Algorithm.
func (*KCore) MaxIterations() int { return 0 }

// BeforeHyperedgePhase implements Algorithm.
func (*KCore) BeforeHyperedgePhase(*State) {}

// BeforeVertexPhase implements Algorithm.
func (*KCore) BeforeVertexPhase(*State) {}

// Init implements Algorithm.
func (k *KCore) Init(s *State, frontierV bitset.Bitmap) {
	nV := uint32(len(s.VertexVal))
	nH := uint32(len(s.HyperedgeVal))
	k.aliveV = make([]bool, nV)
	k.aliveH = make([]bool, nH)
	k.Coreness = make([]float64, nV)
	k.curK = 0
	for h := uint32(0); h < nH; h++ {
		d := s.G.HyperedgeDegree(h)
		s.HyperedgeVal[h] = float64(d)
		k.aliveH[h] = d >= 2
	}
	hs := s.G.PackedV().NewCursor()
	for v := uint32(0); v < nV; v++ {
		var d float64
		for _, h := range hs.List(v) {
			if k.aliveH[h] {
				d++
			}
		}
		s.VertexVal[v] = d
		k.aliveV[v] = true
	}
	k.seed(s, frontierV)
}

// seed advances k until some alive vertex falls below it, removing those
// vertices and putting them on the frontier.
func (k *KCore) seed(s *State, frontierV bitset.Bitmap) {
	for k.curK < k.KMax {
		k.curK++
		found := false
		for v := range k.aliveV {
			if k.aliveV[v] && s.VertexVal[v] < float64(k.curK) {
				k.remove(s, uint32(v))
				frontierV.Set(uint32(v))
				found = true
			}
		}
		if found {
			return
		}
		if !anyTrue(k.aliveV) {
			return
		}
	}
	// The cap was reached with the frontier empty: survivors belong to the
	// deepest (KMax) core. Assigning here also covers the case where the
	// whole decomposition finishes during Init (the engine never iterates
	// when the initial frontier is empty).
	for v := range k.aliveV {
		if k.aliveV[v] {
			k.Coreness[v] = float64(k.curK)
		}
	}
}

func (k *KCore) remove(s *State, v uint32) {
	k.aliveV[v] = false
	k.Coreness[v] = float64(k.curK - 1)
}

// HF implements Algorithm: a removed vertex decrements its hyperedges'
// remaining counts; a hyperedge left with fewer than two vertices dies.
func (k *KCore) HF(s *State, v, h uint32) EdgeResult {
	if !k.aliveH[h] {
		return 0
	}
	s.HyperedgeVal[h]--
	if s.HyperedgeVal[h] < 2 {
		k.aliveH[h] = false
		return Wrote | Activate
	}
	return Wrote
}

// VF implements Algorithm: a dead hyperedge decrements its alive vertices'
// degrees; vertices falling below the current k are removed.
func (k *KCore) VF(s *State, h, v uint32) EdgeResult {
	if !k.aliveV[v] {
		return 0
	}
	s.VertexVal[v]--
	if s.VertexVal[v] < float64(k.curK) {
		k.remove(s, v)
		return Wrote | Activate
	}
	return Wrote
}

// AfterVertexPhase implements Algorithm: when the cascade at the current k
// is exhausted, advance k and reseed.
func (k *KCore) AfterVertexPhase(s *State, frontierV bitset.Bitmap) bool {
	if frontierV.Count() == 0 {
		k.seed(s, frontierV)
		if frontierV.Count() == 0 {
			// Survivors of the deepest level have coreness curK.
			for v := range k.aliveV {
				if k.aliveV[v] {
					k.Coreness[v] = float64(k.curK)
				}
			}
			return true
		}
	}
	return false
}

func anyTrue(b []bool) bool {
	for _, x := range b {
		if x {
			return true
		}
	}
	return false
}
