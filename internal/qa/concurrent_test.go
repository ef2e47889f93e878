package qa_test

import (
	"fmt"
	"sync"
	"testing"

	"simjoin/internal/experiments"
	"simjoin/internal/qa"
	"simjoin/internal/workload"
)

// TestTemplateSystemConcurrentAnswer answers holdout questions from four
// goroutines on one freshly trained store, as simjoind serves concurrent
// /ask requests, and checks every answer equals that of a sequential pass
// over the same store afterwards. Templates build their matching state on
// first use, so the concurrent pass is the store's first; under -race this
// catches unsynchronised lazy state in the matcher.
func TestTemplateSystemConcurrentAnswer(t *testing.T) {
	w, err := workload.GenerateQA(workload.WebQConfig(0.05))
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.Prepare(w)
	pairs, _, err := p.Join(experiments.DefaultJoinOptions())
	if err != nil {
		t.Fatal(err)
	}
	st, _ := p.BuildTemplates(pairs)
	sys := &qa.TemplateSystem{Store: st, Lex: w.KB.Lexicon, KB: w.KB.Store, MinPhi: 0.5}
	questions := w.HoldoutQuestions(1007, 40, 0.2)
	answer := func(q string) string {
		res, err := sys.Answer(q)
		return fmt.Sprint(res, err)
	}

	const workers = 4
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]string, len(questions))
			// Each worker starts at a different question.
			for i := range questions {
				k := (i + g*len(questions)/workers) % len(questions)
				got[g][k] = answer(questions[k].Text)
			}
		}(g)
	}
	wg.Wait()

	answered := 0
	for i, q := range questions {
		res, err := sys.Answer(q.Text)
		if err == nil && len(res) > 0 {
			answered++
		}
		want := fmt.Sprint(res, err)
		for g := range got {
			if got[g][i] != want {
				t.Fatalf("worker %d, %q: %s, sequential %s", g, q.Text, got[g][i], want)
			}
		}
	}
	if answered == 0 {
		t.Fatal("no question answered; the comparison is vacuous")
	}
}
