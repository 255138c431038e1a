// Package gen produces seeded synthetic hypergraphs whose structural shape
// matches the paper's evaluation datasets (Table II, Figure 8).
//
// The paper evaluates on five real hypergraphs from SNAP/KONECT
// (Friendster, com-Orkut, LiveJournal, Web-trackers, Orkut-group) sized
// 0.4-4.6 GB. Those datasets are not available offline and are far too large
// for an in-process microarchitecture simulation, so each recipe generates a
// ~1/1000-scale hypergraph with matched vertex:hyperedge:bipartite-edge
// proportions, power-law degree skew, and a tuned overlap structure that
// reproduces the paper's locality behaviour; the simulated cache capacities
// are scaled jointly (DESIGN.md §3).
//
// The generator is a core-block model reflecting how real hypergraphs
// overlap (stable collaborator groups, template-shared tracker sets):
//
//   - ClusterSize hyperedges form a cluster around a core block of
//     BlockSize vertices with contiguous ids; each member draws a CoreFrac
//     share of its vertices from the block and the rest from a skewed
//     periphery pool (low-degree background vertices plus power-law hubs).
//     Cluster members therefore overlap pairwise well above the OAG
//     threshold — the chains of Figure 1 — while periphery co-occurrence
//     stays below it;
//   - blocks, periphery vertices and hyperedges are confined to one of
//     Regions id-ranges aligned with the per-core chunks (so per-chunk OAGs
//     retain the overlap), and ids are shuffled within each region (so
//     index-ordered processing gets no free locality — the paper's
//     premise). GlobalEscape sends a fraction of periphery picks across
//     regions.
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"chgraph/internal/hypergraph"
)

// Config parameterizes the synthetic hypergraph generator.
type Config struct {
	// Name labels the dataset in reports.
	Name string
	// Seed makes generation deterministic.
	Seed int64
	// NumV and NumH are the vertex and hyperedge counts.
	NumV, NumH uint32
	// TargetBE is the desired number of bipartite edges (incidences).
	TargetBE uint64

	// HyperedgeSizeAlpha is the power-law exponent of hyperedge sizes
	// (larger = less skew); sizes are drawn in [MinSize, MaxSize] and then
	// rescaled to hit TargetBE.
	HyperedgeSizeAlpha float64
	MinSize, MaxSize   uint32

	// DegTailFrac is the fraction of periphery vertices drawing their
	// target degree from the power-law tail (hub vertices); the rest use
	// Geometric(DegGeomP) + 1.
	DegTailFrac float64
	// DegTailAlpha is the tail exponent; tail degrees lie in
	// [DegTailMin, DegTailMax].
	DegTailAlpha           float64
	DegTailMin, DegTailMax uint32
	// DegGeomP is the success probability of the geometric body; the mean
	// body degree is 1/DegGeomP.
	DegGeomP float64

	// ClusterSize is the expected number of hyperedges sharing one core
	// block. 0 defaults to 12.
	ClusterSize float64
	// CoreFrac is the fraction of each hyperedge drawn from its cluster's
	// core block; it controls pairwise overlap (and the value-array reuse
	// chains can harvest) independently of mean vertex degree. 0 defaults
	// to 0.6.
	CoreFrac float64
	// BlockSize is the number of vertices per core block (contiguous
	// ids). 0 derives ~1.7x the mean core demand.
	BlockSize uint32
	// GlobalEscape is the probability that a periphery slot is filled
	// from the global pool instead of the region pool.
	GlobalEscape float64
	// Regions is the number of id-locality regions, aligned with the
	// default per-core chunking. 0 defaults to 16.
	Regions int
}

func (c Config) validate() error {
	if c.NumV == 0 || c.NumH == 0 {
		return fmt.Errorf("gen %q: NumV and NumH must be positive", c.Name)
	}
	if c.MinSize == 0 || c.MaxSize < c.MinSize {
		return fmt.Errorf("gen %q: bad hyperedge size range [%d,%d]", c.Name, c.MinSize, c.MaxSize)
	}
	if c.DegGeomP <= 0 || c.DegGeomP > 1 {
		return fmt.Errorf("gen %q: DegGeomP must be in (0,1]", c.Name)
	}
	return nil
}

// Generate builds the hypergraph described by cfg.
func Generate(cfg Config) (*hypergraph.Bipartite, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.ClusterSize <= 0 {
		cfg.ClusterSize = 12
	}
	if cfg.CoreFrac <= 0 {
		cfg.CoreFrac = 0.6
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// 1. Hyperedge sizes: truncated power law rescaled to TargetBE.
	sizes := make([]uint32, cfg.NumH)
	var total uint64
	for i := range sizes {
		sizes[i] = powerLawU32(rng, cfg.MinSize, cfg.MaxSize, cfg.HyperedgeSizeAlpha)
		total += uint64(sizes[i])
	}
	if cfg.TargetBE > 0 && total > 0 {
		scale := float64(cfg.TargetBE) / float64(total)
		for i := range sizes {
			s := uint32(math.Round(float64(sizes[i]) * scale))
			if s < cfg.MinSize {
				s = cfg.MinSize
			}
			sizes[i] = s
		}
	}
	meanSize := float64(cfg.TargetBE) / float64(cfg.NumH)
	if meanSize < 2 {
		meanSize = 2
	}

	// 2. Block geometry. Cluster members take circular-band intervals of
	// the block (member i covers slots [i, i+c) mod BlockSize), so
	// consecutive members overlap in nearly their whole core — a sparse,
	// path-shaped OAG the chain generator walks end to end — while the
	// cluster as a whole keeps re-touching the same BlockSize vertices
	// (pool-level reuse of factor ClusterSize*CoreFrac*meanSize/BlockSize
	// that index order cannot see). The block must cover the band starts
	// plus one interval; core vertices are capped at half the vertex set
	// so a low-degree periphery always exists.
	blockSize := cfg.BlockSize
	if blockSize == 0 {
		blockSize = uint32(math.Round(0.9*cfg.ClusterSize + cfg.CoreFrac*meanSize))
	}
	if blockSize < 4 {
		blockSize = 4
	}
	numBlocks := uint32(math.Round(float64(cfg.NumH) / cfg.ClusterSize))
	if numBlocks < uint32(cfg.Regions) {
		numBlocks = uint32(cfg.Regions)
	}
	if max := cfg.NumV / (2 * blockSize); numBlocks > max {
		numBlocks = max
	}
	if numBlocks == 0 {
		numBlocks = 1
	}

	// 3. Region layout: hyperedges, blocks and periphery vertices are all
	// split into Regions equal parts, mirroring the engine's chunking.
	hRegions := hypergraph.Chunks(cfg.NumH, cfg.Regions)
	blkRegions := hypergraph.Chunks(numBlocks, cfg.Regions)

	// Per-region vertex handles. Handles are abstract until step 6 maps
	// them to ids: handle = block*blockSize+j for cores, or
	// numBlocks*blockSize+p for periphery vertex p.
	coreHandles := uint64(numBlocks) * uint64(blockSize)
	numPeri := uint64(cfg.NumV) - coreHandles
	periRegions := hypergraph.Chunks(uint32(numPeri), cfg.Regions)

	// Periphery assignment realizes the degree mixture with
	// cluster-exclusive locality: body (geometric) vertices are owned by
	// exactly one block — a cluster's occasional collaborators belong to
	// that cluster alone, like the crawl-order neighborhoods of real
	// datasets. Tail (hub) vertices go to a single global pool reached
	// via GlobalEscape: hubs co-occur everywhere, but with per-pair
	// overlap below W_min; under index order they are the naturally
	// LRU-friendly hot set that makes OK/LJ/OG less improvable in the
	// paper (§VI-C).
	blockPeri := make([][]uint32, numBlocks) // distinct periphery vertices per block
	blockPool := make([][]uint32, numBlocks) // degree-replicated slots per block
	isHub := make([]bool, 0, numPeri)
	var global []uint32
	for r := 0; r < cfg.Regions; r++ {
		blo, bhi := blkRegions[r].Lo, blkRegions[r].Hi
		nb := int(bhi - blo)
		if nb == 0 {
			nb = 1
		}
		i := 0
		for p := periRegions[r].Lo; p < periRegions[r].Hi; p++ {
			handle := uint32(coreHandles) + p
			if rng.Float64() < cfg.DegTailFrac {
				isHub = append(isHub, true)
				d := powerLawU32(rng, cfg.DegTailMin, cfg.DegTailMax, cfg.DegTailAlpha)
				for k := uint32(0); k < d; k++ {
					global = append(global, handle)
				}
				continue
			}
			isHub = append(isHub, false)
			b := blo + uint32(i%nb)
			if b >= numBlocks {
				// A trailing region with no blocks of its own (more
				// regions than blocks): lend it the last block.
				b = numBlocks - 1
			}
			i++
			blockPeri[b] = append(blockPeri[b], handle)
			d := geometric(rng, cfg.DegGeomP)
			for k := uint32(0); k < d; k++ {
				blockPool[b] = append(blockPool[b], handle)
			}
		}
	}
	for b := range blockPool {
		pool := blockPool[b]
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	}
	rng.Shuffle(len(global), func(i, j int) { global[i], global[j] = global[j], global[i] })

	// 4. Fill hyperedges: a nested-prefix core from the cluster block plus
	// periphery drawn from a per-block window of the region pool — cluster
	// members share most of their occasional collaborators too, so nearly
	// the whole cluster working set is reused along a chain (escaping
	// globally with GlobalEscape).
	hyperedges := make([][]uint32, cfg.NumH)
	blockSeq := make([]uint32, numBlocks)
	gCursor := 0
	member := make(map[uint32]struct{}, 64)
	for r := 0; r < cfg.Regions; r++ {
		blo, bhi := blkRegions[r].Lo, blkRegions[r].Hi
		for h := hRegions[r].Lo; h < hRegions[r].Hi; h++ {
			size := sizes[h]
			members := make([]uint32, 0, size)
			clear(member)
			coreTarget := uint32(math.Round(cfg.CoreFrac * float64(size)))
			if coreTarget > blockSize {
				coreTarget = blockSize
			}
			b := blo
			if bhi > blo {
				b = blo + uint32(rng.Intn(int(bhi-blo)))
			} else if b >= numBlocks {
				b = numBlocks - 1 // blockless trailing region, as above
			}
			if coreTarget > 0 {
				// Circular-band sampling: the block's i-th member covers
				// slots [i, i+coreTarget) mod blockSize, so successive
				// members of a cluster overlap in all but one core vertex.
				seq := blockSeq[b]
				blockSeq[b]++
				for j := uint32(0); j < coreTarget; j++ {
					v := b*blockSize + (seq+j)%blockSize
					member[v] = struct{}{}
					members = append(members, v)
				}
			}
			// Cluster-exclusive periphery: members walk the block's own
			// slot pool from a small per-member offset.
			seg := blockPool[b]
			cursor := 0
			if len(seg) > 0 {
				cursor = rng.Intn(int(size) + 1)
			}
			budget := 6*int(size) + 16
			for uint32(len(members)) < size && budget > 0 {
				budget--
				var v uint32
				if len(seg) == 0 || (len(global) > 0 && rng.Float64() < cfg.GlobalEscape) {
					if len(global) == 0 {
						break
					}
					v = global[gCursor%len(global)]
					gCursor++
				} else {
					v = seg[cursor%len(seg)]
					cursor++
				}
				if _, dup := member[v]; dup {
					continue
				}
				member[v] = struct{}{}
				members = append(members, v)
			}
			hyperedges[h] = members
		}
	}

	// 5. Vertex id assignment: each cluster (its core block plus its
	// exclusive periphery) occupies a contiguous id range — the
	// crawl-order locality real datasets exhibit, which keeps a cluster's
	// working set on few cache lines — but ids are shuffled *within* the
	// cluster and cluster groups are shuffled within the region, so one
	// hyperedge's members still scatter across the cluster's lines and
	// index order gains nothing. Hub vertices form their own shuffled
	// group per region.
	handleToID := make([]uint32, cfg.NumV)
	id := uint32(0)
	for r := 0; r < cfg.Regions; r++ {
		var groups [][]uint32
		for b := blkRegions[r].Lo; b < blkRegions[r].Hi; b++ {
			var grp []uint32
			for j := uint32(0); j < blockSize; j++ {
				grp = append(grp, b*blockSize+j)
			}
			grp = append(grp, blockPeri[b]...)
			groups = append(groups, grp)
		}
		var hubs []uint32
		for p := periRegions[r].Lo; p < periRegions[r].Hi; p++ {
			if isHub[p] {
				hubs = append(hubs, uint32(coreHandles)+p)
			}
		}
		if len(hubs) > 0 {
			groups = append(groups, hubs)
		}
		rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		for _, grp := range groups {
			rng.Shuffle(len(grp), func(i, j int) { grp[i], grp[j] = grp[j], grp[i] })
			for _, hnd := range grp {
				handleToID[hnd] = id
				id++
			}
		}
	}
	if id != cfg.NumV {
		return nil, fmt.Errorf("gen %q: id layout mismatch (%d != %d)", cfg.Name, id, cfg.NumV)
	}
	// Sorting each pin list here, as standard CSR construction orders
	// adjacency, lets Build pack the final lists once.
	for _, members := range hyperedges {
		for i, v := range members {
			members[i] = handleToID[v]
		}
		slices.Sort(members)
	}

	// 6. Hyperedge id shuffle within each region.
	for _, w := range hRegions {
		sub := hyperedges[w.Lo:w.Hi]
		rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	}

	return hypergraph.Build(cfg.NumV, hyperedges)
}

// MustGenerate is Generate but panics on error.
func MustGenerate(cfg Config) *hypergraph.Bipartite {
	g, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// powerLawU32 draws an integer in [lo, hi] from a power law with density
// proportional to x^-alpha, via inverse transform sampling.
func powerLawU32(rng *rand.Rand, lo, hi uint32, alpha float64) uint32 {
	if hi <= lo {
		return lo
	}
	x0, x1 := float64(lo), float64(hi)+1
	u := rng.Float64()
	var x float64
	if math.Abs(alpha-1) < 1e-9 {
		x = x0 * math.Exp(u*math.Log(x1/x0))
	} else {
		a := 1 - alpha
		x = math.Pow(u*(math.Pow(x1, a)-math.Pow(x0, a))+math.Pow(x0, a), 1/a)
	}
	v := uint32(x)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// geometric draws from Geometric(p) starting at 1.
func geometric(rng *rand.Rand, p float64) uint32 {
	u := rng.Float64()
	d := uint32(math.Floor(math.Log(1-u)/math.Log(1-p))) + 1
	if d < 1 {
		d = 1
	}
	if d > 1<<20 {
		d = 1 << 20
	}
	return d
}
