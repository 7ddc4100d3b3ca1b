package cuts

import (
	"sort"

	"repro/internal/pb"
)

// Conflict-graph caps: vertices (distinct complemented literals), pairs
// absorbed per general row, and the row length up to which a detected
// cardinality row contributes its full pairwise clique.
const (
	maxGraphVerts  = 4096
	maxRowPairs    = 256
	maxCardCliqueN = 32
)

// conflictGraph is the lazily-built incompatibility graph over complemented
// literals: vertices are literals ¬l_i appearing in some original row, an
// edge (u, v) records that u and v cannot both be true in any solution.
//
// From a normal-form row Σ a_j·l_j ≥ d with slack b = Σa − d, complements
// ¬l_i and ¬l_j are incompatible exactly when a_i + a_j > b: making both
// literals false removes more weight than the row can spare. Rows detected
// as semantic cardinalities are analyzed in their unit-coefficient view
// first — equivalence means the unit view's incompatibilities (all pairs,
// when need ≥ n−1) subsume whatever the raw coefficients reveal.
//
// Rows are absorbed at most once (by engine index); the graph grows
// lazily as the search's reduced problems surface rows to the separator.
type conflictGraph struct {
	seen []uint64 // engine indices of the rows claimed so far, as a bitset
	adj  map[pb.Lit]map[pb.Lit]bool
}

// claim marks row idx as absorbed, reporting whether it was not already.
func (g *conflictGraph) claim(idx int) bool {
	w := idx >> 6
	if w >= len(g.seen) {
		g.seen = append(g.seen, make([]uint64, w+1-len(g.seen))...)
	}
	bit := uint64(1) << (idx & 63)
	if g.seen[w]&bit != 0 {
		return false
	}
	g.seen[w] |= bit
	return true
}

func (g *conflictGraph) addEdge(u, v pb.Lit) {
	if u == v || u.Var() == v.Var() {
		return
	}
	if g.adj == nil {
		g.adj = make(map[pb.Lit]map[pb.Lit]bool)
	}
	if len(g.adj) >= maxGraphVerts {
		if _, ok := g.adj[u]; !ok {
			return
		}
		if _, ok := g.adj[v]; !ok {
			return
		}
	}
	for _, pair := range [2][2]pb.Lit{{u, v}, {v, u}} {
		m := g.adj[pair[0]]
		if m == nil {
			m = make(map[pb.Lit]bool)
			g.adj[pair[0]] = m
		}
		m[pair[1]] = true
	}
}

// absorb folds unseen rows' incompatibilities into the graph.
func (g *conflictGraph) absorb(rows []Source) {
	for _, src := range rows {
		if g.claim(src.EngIdx) {
			g.add(src)
		}
	}
}

// add folds one row's incompatibilities into the graph.
func (g *conflictGraph) add(src Source) {
	n := len(src.Lits)
	if n < 2 {
		return
	}
	if need, ok := cardNeed(src.Coefs, src.Degree); ok {
		// Semantic cardinality Σ l ≥ need: at most n−need literals may be
		// false, so complements are pairwise incompatible iff need ≥ n−1.
		if need >= n-1 && n <= maxCardCliqueN {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					g.addEdge(src.Lits[i].Neg(), src.Lits[j].Neg())
				}
			}
		}
		return
	}
	// General row: coefficients are stored descending, so for each j the
	// incompatible partners form a prefix i < p_j with a_i + a_j > b.
	b := src.slack()
	pairs := 0
	for j := 1; j < n && pairs < maxRowPairs; j++ {
		for i := 0; i < j; i++ {
			if src.Coefs[i]+src.Coefs[j] <= b {
				break // prefix exhausted (coefs descending)
			}
			g.addEdge(src.Lits[i].Neg(), src.Lits[j].Neg())
			if pairs++; pairs >= maxRowPairs {
				break
			}
		}
	}
}

// separate grows violated cliques greedily from the LP point: vertices are
// visited in descending y* (the complement's LP value), each seeding a
// clique extended by the highest-y* compatible neighbors. A clique Q yields
// "at most one of Q true", i.e. the cut Σ_{u∈Q} ¬u ≥ |Q|−1 in literal
// space, violated iff Σ_Q y* > 1.
func (g *conflictGraph) separate(frac func(pb.Lit) float64, minViol float64, maxCuts int) []Cut {
	if len(g.adj) == 0 || maxCuts <= 0 {
		return nil
	}
	type vert struct {
		l pb.Lit
		y float64
	}
	verts := make([]vert, 0, len(g.adj))
	for u := range g.adj {
		if y := clamp01(frac(u)); y > 0.1 {
			verts = append(verts, vert{u, y})
		}
	}
	sort.Slice(verts, func(a, b int) bool {
		if verts[a].y != verts[b].y {
			return verts[a].y > verts[b].y
		}
		return verts[a].l < verts[b].l
	})
	yOf := make(map[pb.Lit]float64, len(verts))
	for _, v := range verts {
		yOf[v.l] = v.y
	}
	used := make(map[pb.Lit]bool)
	var out []Cut
	for _, seed := range verts {
		if len(out) >= maxCuts {
			break
		}
		if used[seed.l] {
			continue
		}
		// Candidates: the seed's neighborhood (every clique member must be
		// adjacent to the seed anyway), highest y* first.
		cands := make([]vert, 0, len(g.adj[seed.l]))
		for nb := range g.adj[seed.l] {
			if y, ok := yOf[nb]; ok && !used[nb] {
				cands = append(cands, vert{nb, y})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].y != cands[b].y {
				return cands[a].y > cands[b].y
			}
			return cands[a].l < cands[b].l
		})
		clique := []pb.Lit{seed.l}
		ysum := seed.y
		for _, cand := range cands {
			compatible := true
			for _, q := range clique[1:] {
				if !g.adj[q][cand.l] {
					compatible = false
					break
				}
			}
			if compatible {
				clique = append(clique, cand.l)
				ysum += cand.y
			}
		}
		if len(clique) < 2 || ysum <= 1+minViol {
			continue
		}
		terms := make([]pb.Term, len(clique))
		for i, u := range clique {
			terms[i] = pb.Term{Coef: 1, Lit: u.Neg()}
			used[u] = true
		}
		sortTerms(terms)
		out = append(out, Cut{Terms: terms, Degree: int64(len(clique) - 1)})
	}
	return out
}
