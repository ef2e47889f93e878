package nlq

import "strings"

// TreeEditDistance computes the Zhang–Shasha edit distance between two
// ordered labeled trees with unit insert/delete/rename costs. Renaming is
// free when the labels are equal (case-insensitive) or when either node is a
// template Slot — slots align with any word, which is exactly how templates
// absorb the entity phrases of a new question (§2.2).
func TreeEditDistance(a, b *DepNode) int {
	return PrepareTree(a).Distance(PrepareTree(b))
}

// PreparedTree is a dependency tree flattened for TreeEditDistance: its
// postorder labels, leftmost-leaf-descendant indices and keyroots, the
// inputs of Zhang–Shasha. Prepare a tree once to compare it against many.
type PreparedTree struct {
	labels   []string
	lld      []int
	keyroots []int
}

// Distance is TreeEditDistance between the two prepared trees.
func (a PreparedTree) Distance(b PreparedTree) int { return zhangShasha(a, b) }

// PrepareTree flattens a tree (nil is the empty tree) for Distance.
func PrepareTree(root *DepNode) PreparedTree {
	var ft PreparedTree
	var walk func(n *DepNode) int // returns postorder index of n
	walk = func(n *DepNode) int {
		first := -1
		for _, c := range n.Children {
			ci := walk(c)
			if first < 0 {
				first = ft.lld[ci]
			}
		}
		idx := len(ft.labels)
		ft.labels = append(ft.labels, n.Label)
		if first < 0 {
			ft.lld = append(ft.lld, idx)
		} else {
			ft.lld = append(ft.lld, first)
		}
		return idx
	}
	if root != nil {
		walk(root)
	}
	// Keyroots: nodes with no left sibling on the path (lld differs from the
	// lld of every larger node), i.e. the largest node for each distinct lld.
	largest := map[int]int{}
	for i, l := range ft.lld {
		largest[l] = i
	}
	for _, i := range largest {
		ft.keyroots = append(ft.keyroots, i)
	}
	// Sort keyroots ascending (insertion sort: the sets are tiny).
	for i := 1; i < len(ft.keyroots); i++ {
		for j := i; j > 0 && ft.keyroots[j] < ft.keyroots[j-1]; j-- {
			ft.keyroots[j], ft.keyroots[j-1] = ft.keyroots[j-1], ft.keyroots[j]
		}
	}
	return ft
}

func renameCost(a, b string) int {
	if a == Slot || b == Slot || strings.EqualFold(a, b) {
		return 0
	}
	return 1
}

func zhangShasha(t1, t2 PreparedTree) int {
	n, m := len(t1.labels), len(t2.labels)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	td := make([][]int, n)
	for i := range td {
		td[i] = make([]int, m)
	}

	fd := make([][]int, n+1)
	for i := range fd {
		fd[i] = make([]int, m+1)
	}

	for _, i := range t1.keyroots {
		for _, j := range t2.keyroots {
			li, lj := t1.lld[i], t2.lld[j]
			fd[li][lj] = 0
			for di := li; di <= i; di++ {
				fd[di+1][lj] = fd[di][lj] + 1
			}
			for dj := lj; dj <= j; dj++ {
				fd[li][dj+1] = fd[li][dj] + 1
			}
			for di := li; di <= i; di++ {
				for dj := lj; dj <= j; dj++ {
					if t1.lld[di] == li && t2.lld[dj] == lj {
						d := fd[di][dj] + renameCost(t1.labels[di], t2.labels[dj])
						if v := fd[di][dj+1] + 1; v < d {
							d = v
						}
						if v := fd[di+1][dj] + 1; v < d {
							d = v
						}
						fd[di+1][dj+1] = d
						td[di][dj] = d
					} else {
						d := fd[t1.lld[di]][t2.lld[dj]] + td[di][dj]
						if v := fd[di][dj+1] + 1; v < d {
							d = v
						}
						if v := fd[di+1][dj] + 1; v < d {
							d = v
						}
						fd[di+1][dj+1] = d
					}
				}
			}
		}
	}
	return td[n-1][m-1]
}
