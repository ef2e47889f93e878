package core

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestIndexSourceUsesMultipleWorkers is the regression test for the
// single-consumer defect the index feed used to have: it accepted
// Options.Workers but processed every candidate on one goroutine. The pair
// hook holds the first worker hostage until a second worker reports a pair
// (with a timeout escape), so a single-consumer implementation cannot pass by
// winning the scheduling race.
func TestIndexSourceUsesMultipleWorkers(t *testing.T) {
	d, u := smallWorkload(51, 12, 12)
	idx := BuildIndex(d)

	var (
		mu   sync.Mutex
		seen = map[int]bool{}
		once sync.Once
	)
	barrier := make(chan struct{})
	timeout := time.After(5 * time.Second)
	testPairHook = func(worker int) {
		mu.Lock()
		seen[worker] = true
		n := len(seen)
		mu.Unlock()
		if n >= 2 {
			once.Do(func() { close(barrier) })
			return
		}
		select {
		case <-barrier:
		case <-timeout:
		}
	}
	defer func() { testPairHook = nil }()

	opts := Options{Tau: 2, Alpha: 0.5, Mode: ModeSimJ, Workers: 4}
	if _, _, err := JoinWith(context.Background(), idx.Source(u), opts); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 2 {
		t.Fatalf("only %d worker(s) processed pairs; want at least 2", len(seen))
	}
}
