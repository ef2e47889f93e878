package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
)

// Tests of the streaming-arrivals source beyond the differential oracle
// (TestJoinOracle): one request per query, many requests sharing one
// Resident concurrently, and cancellation.

func sortPairsQG(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Q != ps[j].Q {
			return ps[i].Q < ps[j].Q
		}
		return ps[i].G < ps[j].G
	})
}

// TestStreamSourceMatchesJoin joins every query one at a time against a
// Resident (one JoinWith per query, as the resident service does per
// request): each request must see the whole resident set, and the union,
// re-indexed to d's query indices, must equal the batch Join pair for pair.
func TestStreamSourceMatchesJoin(t *testing.T) {
	d, u := smallWorkload(23, 12, 10)
	res := NewResident(u)
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Alpha = 0.5
		opts.Workers = workers
		want, _, err := Join(d, u, opts)
		if err != nil {
			t.Fatal(err)
		}
		var all []Pair
		for qi := range d {
			pairs, st, err := JoinWith(context.Background(), NewStreamSource(res, d[qi:qi+1]), opts)
			if err != nil {
				t.Fatalf("workers=%d: stream join for query %d: %v", workers, qi, err)
			}
			if want := int64(res.Len()); st.Pairs != want {
				t.Fatalf("workers=%d query %d: Pairs = %d, want %d", workers, qi, st.Pairs, want)
			}
			for _, p := range pairs {
				p.Q = qi
				all = append(all, p)
			}
		}
		sortPairsQG(all)
		assertSamePairs(t, fmt.Sprintf("workers=%d: stream vs batch", workers), all, want)
	}
}

func TestStreamSourceConcurrentRequests(t *testing.T) {
	d, u := smallWorkload(29, 16, 12)
	res := NewResident(u)
	opts := DefaultOptions()
	opts.Alpha = 0.5
	opts.Workers = 2

	want, _, err := Join(d, u, opts)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu  sync.Mutex
		all []Pair
		wg  sync.WaitGroup
	)
	for qi := range d {
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			pairs, _, err := JoinWith(context.Background(), NewStreamSource(res, d[qi:qi+1]), opts)
			if err != nil {
				t.Errorf("concurrent stream join %d: %v", qi, err)
				return
			}
			mu.Lock()
			for _, p := range pairs {
				p.Q = qi
				all = append(all, p)
			}
			mu.Unlock()
		}(qi)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	sortPairsQG(all)
	assertSamePairs(t, "concurrent streams vs batch", all, want)
}

func TestStreamSourceCancellation(t *testing.T) {
	d, u := smallWorkload(31, 4, 20)
	res := NewResident(u)
	opts := DefaultOptions()
	opts.Alpha = 0.5
	opts.Workers = 1

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs, st, err := JoinWith(ctx, NewStreamSource(res, d[:1]), opts)
	if err == nil {
		t.Fatal("cancelled stream join returned nil error")
	}
	if pairs != nil {
		t.Fatalf("cancelled stream join returned %d pairs", len(pairs))
	}
	if !st.Cancelled {
		t.Fatal("Stats.Cancelled not set on cancelled stream join")
	}
}
