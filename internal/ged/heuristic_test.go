package ged

import (
	"math/rand"
	"testing"
)

// TestSuccessorHeuristicMatchesFull pins the delta evaluation against the
// full recomputation: for random graph pairs and random search states,
// successorHeuristic(used, v) must equal heuristic(k+1, used|v) for every
// legal branch (including deletion), and eCntB must be restored between
// siblings. The A* search relies on exact equality — a looser (still
// admissible) delta would silently change pruning behaviour.
func TestSuccessorHeuristicMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		a := randomGraph(rng, 1+rng.Intn(6), rng.Intn(8))
		b := randomGraph(rng, 1+rng.Intn(6), rng.Intn(8))
		s := searcherPool.Get().(*searcher)
		s.setup(Prepare(a), Prepare(b), Options{Threshold: NoThreshold})

		nA, nB := s.nA, s.nB
		for trial := 0; trial < 8; trial++ {
			k := rng.Intn(nA) // expandable state: k < nA
			// A plausible used mask: k random b-vertices consumed.
			var used uint64
			for c := 0; c < k && c < nB; c++ {
				used |= 1 << uint(rng.Intn(nB))
			}
			cur := &state{k: k, used: used}
			s.prepareExpand(cur)
			for v := 0; v < nB; v++ {
				if used&(1<<uint(v)) != 0 {
					continue
				}
				got := s.successorHeuristic(used, v)
				want := s.heuristic(k+1, used|1<<uint(v))
				if got != want {
					t.Fatalf("iter %d trial %d: successorHeuristic(v=%d) = %d, full = %d\na=%v\nb=%v k=%d used=%b",
						iter, trial, v, got, want, s.a.Graph(), s.b.Graph(), k, used)
				}
				// heuristic clobbered the shared count scratch; rebuild the
				// base before evaluating the next sibling.
				s.prepareExpand(cur)
			}
			got := s.successorHeuristic(used, Deleted)
			want := s.heuristic(k+1, used)
			if got != want {
				t.Fatalf("iter %d trial %d: successorHeuristic(Deleted) = %d, full = %d", iter, trial, got, want)
			}
		}
		s.release()
	}
}

// TestSuccessorHeuristicRestoresScratch pins the undo: two evaluations of
// the same successor from the same base must agree (a leaked eCntB mutation
// would skew the second).
func TestSuccessorHeuristicRestoresScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		a := randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(6))
		b := randomGraph(rng, 2+rng.Intn(5), 1+rng.Intn(6))
		s := searcherPool.Get().(*searcher)
		s.setup(Prepare(a), Prepare(b), Options{Threshold: NoThreshold})
		cur := &state{k: 0, used: 0}
		s.prepareExpand(cur)
		for v := 0; v < s.nB; v++ {
			first := s.successorHeuristic(0, v)
			second := s.successorHeuristic(0, v)
			if first != second {
				t.Fatalf("iter %d: successorHeuristic(v=%d) not idempotent: %d then %d", iter, v, first, second)
			}
		}
		s.release()
	}
}
