package ged

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"simjoin/internal/graph"
)

// computeCorpusDigest fingerprints Compute's Distance, Exceeded, Mapping and
// States over computeCorpus. The values were recorded with the search that
// copied the full mapping into every generated state; the parent-pointer
// states must reproduce them exactly, because the pop order decides which of
// several optimal mappings Compute returns, and template generation keeps
// that mapping.
const (
	computeCorpusDigest = "b110bc49100d2b34"
	computeCorpusStates = 190436
)

// computeCorpus runs Compute over a seeded corpus of random graph pairs (both
// argument orders, so the swapped direction is covered) at every threshold
// from 0 to 4 and without one, and returns the digest of the outcomes and
// the total states expanded. With prepared set it runs ComputePrepared
// instead, preparing each graph once for all twelve of its searches.
func computeCorpus(t *testing.T, prepared bool) (string, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(20260401))
	h := sha256.New()
	states := 0
	for i := 0; i < 400; i++ {
		a := randomGraph(rng, 1+rng.Intn(9), rng.Intn(14))
		b := randomGraph(rng, 1+rng.Intn(9), rng.Intn(14))
		pa, pb := Prepare(a), Prepare(b)
		for _, tau := range []int{0, 1, 2, 3, 4, NoThreshold} {
			for rev, pair := range [2][2]*graph.Graph{{a, b}, {b, a}} {
				opts := Options{Threshold: tau}
				r, err := Compute(pair[0], pair[1], opts)
				if prepared {
					sides := [2]*Prepared{pa, pb}
					r, err = ComputePrepared(sides[rev], sides[1-rev], opts, nil)
				}
				if err != nil {
					t.Fatalf("case %d tau %d: %v", i, tau, err)
				}
				states += r.States
				fmt.Fprintf(h, "%d %d %d %t %v %d\n", i, tau, rev, r.Exceeded, r.Mapping, r.States)
				if !r.Exceeded {
					fmt.Fprintf(h, "d=%d\n", r.Distance)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], states
}

// TestComputeCorpusPinned pins Compute's search order: Distance, Mapping and
// States over the seeded corpus must equal the recorded values, through
// Compute and through ComputePrepared alike.
func TestComputeCorpusPinned(t *testing.T) {
	for _, prepared := range []bool{false, true} {
		digest, states := computeCorpus(t, prepared)
		if digest != computeCorpusDigest || states != computeCorpusStates {
			t.Fatalf("prepared=%v: corpus digest %s, states %d; recorded %s, %d",
				prepared, digest, states, computeCorpusDigest, computeCorpusStates)
		}
	}
}
