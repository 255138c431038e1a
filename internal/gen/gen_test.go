package gen

import (
	"testing"

	"chgraph/internal/hypergraph"
)

func TestDeterminism(t *testing.T) {
	a := MustLoad("FS", 0.05)
	b := MustLoad("FS", 0.05)
	if a.NumVertices() != b.NumVertices() || a.NumBipartiteEdges() != b.NumBipartiteEdges() {
		t.Fatal("generation not deterministic in shape")
	}
	for h := uint32(0); h < a.NumHyperedges(); h += 97 {
		av, bv := a.IncidentVertices(h), b.IncidentVertices(h)
		if len(av) != len(bv) {
			t.Fatal("generation not deterministic in content")
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatal("generation not deterministic in content")
			}
		}
	}
}

func TestAllRecipesValidate(t *testing.T) {
	for _, name := range HypergraphNames {
		g, err := Load(name, 0.05)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range GraphNames {
		g, err := LoadGraph(name, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestTableIIProportions(t *testing.T) {
	// At scale s, counts should be near s*baseScale/1000 of the paper's.
	type row struct{ v, h, be float64 }
	paper := map[string]row{
		"FS":  {7.94e6, 1.62e6, 23.48e6},
		"WEB": {27.67e6, 12.77e6, 140.61e6},
	}
	base := map[string]float64{"FS": 9, "WEB": 3}
	for name, p := range paper {
		g := MustLoad(name, 0.2)
		f := 0.2 * base[name] / 1000
		if rel(float64(g.NumVertices()), p.v*f) > 0.05 {
			t.Errorf("%s vertices %d vs expected %.0f", name, g.NumVertices(), p.v*f)
		}
		if rel(float64(g.NumHyperedges()), p.h*f) > 0.05 {
			t.Errorf("%s hyperedges %d vs expected %.0f", name, g.NumHyperedges(), p.h*f)
		}
		// Bipartite edges are approximate (dedup, budgets): 25% tolerance.
		if rel(float64(g.NumBipartiteEdges()), p.be*f) > 0.25 {
			t.Errorf("%s bedges %d vs expected %.0f", name, g.NumBipartiteEdges(), p.be*f)
		}
	}
}

func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestFig8Ordering(t *testing.T) {
	// The dense datasets (OK/LJ/OG) must have a far larger fraction of
	// vertices shared by >= 7 hyperedges than the sparse ones (FS/WEB).
	ratio7 := func(name string) float64 {
		g := MustLoad(name, 0.2)
		return hypergraph.SharedVertexRatio(g, []uint32{7})[0]
	}
	sparseMax := ratio7("FS")
	if r := ratio7("WEB"); r > sparseMax {
		sparseMax = r
	}
	for _, dense := range []string{"OK", "LJ", "OG"} {
		if r := ratio7(dense); r <= sparseMax {
			t.Errorf("%s sharable-by-7 ratio %.2f not above sparse datasets' %.2f (Figure 8 ordering)", dense, r, sparseMax)
		}
	}
}

func TestUnknownNames(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("unknown hypergraph accepted")
	}
	if _, err := LoadGraph("nope", 1); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Name: "x", NumV: 0, NumH: 1, MinSize: 2, MaxSize: 4, DegGeomP: 0.5},
		{Name: "x", NumV: 1, NumH: 1, MinSize: 0, MaxSize: 4, DegGeomP: 0.5},
		{Name: "x", NumV: 1, NumH: 1, MinSize: 5, MaxSize: 4, DegGeomP: 0.5},
		{Name: "x", NumV: 1, NumH: 1, MinSize: 2, MaxSize: 4, DegGeomP: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestGraphsAreTwoUniform(t *testing.T) {
	g := MustLoadGraph("AZ", 0.2)
	for h := uint32(0); h < g.NumHyperedges(); h++ {
		if g.HyperedgeDegree(h) != 2 {
			t.Fatalf("graph hyperedge %d has degree %d", h, g.HyperedgeDegree(h))
		}
	}
}

func TestOverlapStructureExists(t *testing.T) {
	// The generator's whole point: a nontrivial fraction of hyperedges
	// must have a W_min=3 overlap partner (chainable).
	g := MustLoad("WEB", 0.3)
	n := g.NumHyperedges()
	withPartner := 0
	checked := 0
	for h := uint32(0); h < n; h += 7 {
		checked++
		found := false
		for b := uint32(0); b < n && !found; b += 3 {
			if b != h && g.OverlapSize(h, b) >= 3 {
				found = true
			}
		}
		if found {
			withPartner++
		}
	}
	if float64(withPartner) < 0.3*float64(checked) {
		t.Fatalf("only %d/%d sampled hyperedges have a W_min=3 partner", withPartner, checked)
	}
}

// TestSmallScalesGenerate: at small scales a recipe can have more regions
// than blocks, leaving a region with none of its own. Every recipe must
// still generate a valid hypergraph there, for several seeds.
func TestSmallScalesGenerate(t *testing.T) {
	for _, name := range HypergraphNames {
		for _, scale := range []float64{0.005, 0.01, 0.02} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg, err := Recipe(name, scale)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Seed = seed
				g, err := Generate(cfg)
				if err != nil {
					t.Fatalf("%s@%g seed %d: %v", name, scale, seed, err)
				}
				if err := g.Validate(); err != nil {
					t.Fatalf("%s@%g seed %d: %v", name, scale, seed, err)
				}
			}
		}
	}
}
