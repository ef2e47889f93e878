package ugraph

// Group is one possible-world group (PWG, §6.2): a conditioned uncertain
// graph covering a disjoint subset of the original graph's possible worlds.
// Probabilities inside the group stay unnormalised, so world probabilities
// within the group sum to Mass and contributions to SimPτ add up directly
// across groups.
type Group struct {
	G    *Graph
	Mass float64
}

// AsGroup wraps the whole graph as a single group covering all worlds.
func (g *Graph) AsGroup() Group {
	return Group{G: g, Mass: g.TotalMass()}
}

// SplitVertex selects the vertex whose uncertain labels should be split
// first, following the two principles of §6.2: prefer the vertex with the
// highest total existence probability among its uncertain labels, breaking
// ties by the larger number of possible labels. Vertices with a single label
// cannot be split; SplitVertex returns -1 when no vertex is splittable.
func (g *Graph) SplitVertex() int {
	best := -1
	bestMass := -1.0
	bestLabels := 0
	for v, ls := range g.vertices {
		if len(ls) < 2 {
			continue
		}
		mass := sumP(ls)
		if mass > bestMass || (mass == bestMass && len(ls) > bestLabels) {
			best, bestMass, bestLabels = v, mass, len(ls)
		}
	}
	return best
}

// Split divides one group into two by partitioning the labels of the chosen
// vertex into a most-probable half and the rest (labels are stored in
// non-increasing probability order, so taking a prefix balances the masses
// as evenly as a contiguous split can). It returns the two subgroups, or
// (g, nil) when the group cannot be split further.
func (gr Group) Split() (Group, Group, bool) {
	v := gr.G.SplitVertex()
	if v < 0 {
		return gr, Group{}, false
	}
	ls := gr.G.vertices[v]
	// Take the label prefix whose mass first reaches half of the vertex mass.
	total := sumP(ls)
	cut := 1
	acc := ls[0].P
	for cut < len(ls)-1 && acc < total/2 {
		acc += ls[cut].P
		cut++
	}
	left := indexRange(0, cut)
	right := indexRange(cut, len(ls))
	g1, m1 := gr.G.Condition(v, left)
	g2, m2 := gr.G.Condition(v, right)
	return Group{G: g1, Mass: m1}, Group{G: g2, Mass: m2}, true
}

func indexRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// PartitionWorlds divides the graph's possible worlds into at most k disjoint
// groups (Algorithm 2's grouping step), query-independently: every round
// splits the group with the largest probability mass (the group contributing
// the loosest probability bound, all else being equal). Splitting stops when
// k groups exist or nothing remains splittable. The union of the returned
// groups always covers exactly the original worlds. The join's grouped bound
// chooses its splits per query instead (filter's split tree); both split a
// group the same way (Group.Split).
func (g *Graph) PartitionWorlds(k int) []Group {
	groups := []Group{g.AsGroup()}
	for len(groups) < k {
		best, bestMass := -1, -1.0
		for i, gr := range groups {
			if gr.G.SplitVertex() >= 0 && gr.Mass > bestMass {
				best, bestMass = i, gr.Mass
			}
		}
		if best < 0 {
			break
		}
		a, b, _ := groups[best].Split()
		groups[best] = a
		groups = append(groups, b)
	}
	return groups
}
