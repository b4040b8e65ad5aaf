package coverage

import (
	"context"
	"testing"
)

// TestHeatDecayBoundsCounters pins the heat decay: until the decay period
// the hit counters grow with every batch, and every heatDecayInterval-th
// batch halves them, so they track recent batches instead of the whole
// process history and stay bounded however long the process runs.
func TestHeatDecayBoundsCounters(t *testing.T) {
	ctx := context.Background()
	_, posG, negG := benchExamples(t, 40, 4, 4)
	e := NewEvaluator(Options{Threads: 1})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)

	// The western candidate misses every positive in every batch, so before
	// the first decay heat is exactly the batch count; at batch 64 it
	// reaches 64 and is halved to 32, and at batch 128 it is (32+64)/2.
	want := int64(0)
	for r := 1; r <= 3*heatDecayInterval; r++ {
		scoreBatch(ctx, e, westernCandidate(), posEx, negEx, -1<<30)
		want++
		if r%heatDecayInterval == 0 {
			want /= 2
		}
		for i, ex := range posEx {
			if ex.Heat() != want {
				t.Fatalf("batch %d: positive %d heat = %d, want %d", r, i, ex.Heat(), want)
			}
			if ex.Heat() >= 2*heatDecayInterval {
				t.Fatalf("batch %d: positive %d heat %d escaped the decay bound", r, i, ex.Heat())
			}
		}
	}
}

// TestHeatDecayDefaultInterval checks the decay period: a batch count one
// short of it leaves the counters untouched, and the next batch halves them.
func TestHeatDecayDefaultInterval(t *testing.T) {
	ctx := context.Background()
	_, posG, negG := benchExamples(t, 40, 2, 2)
	e := NewEvaluator(Options{Threads: 1})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)
	for r := 1; r < heatDecayInterval; r++ {
		scoreBatch(ctx, e, westernCandidate(), posEx, negEx, -1<<30)
	}
	if got := posEx[0].Heat(); got != heatDecayInterval-1 {
		t.Fatalf("heat after %d batches = %d, want %d (no decay yet)", heatDecayInterval-1, got, heatDecayInterval-1)
	}
	scoreBatch(ctx, e, westernCandidate(), posEx, negEx, -1<<30)
	if got := posEx[0].Heat(); got != heatDecayInterval/2 {
		t.Fatalf("heat after %d batches = %d, want %d (halved)", heatDecayInterval, got, heatDecayInterval/2)
	}
}

// TestHeatDecayKeepsScoresExact verifies decay is a scheduling-only
// mechanism: across several decay periods, every score from an evaluator
// whose examples carry (decaying) heat matches the score over examples that
// were never heated.
func TestHeatDecayKeepsScoresExact(t *testing.T) {
	ctx := context.Background()
	_, posG, negG := benchExamples(t, 40, 6, 6)
	cands := append(benchCandidates(), westernCandidate())
	ref := NewEvaluator(Options{Threads: 2})
	refPos := mustExamples(t, ref, posG)
	refNeg := mustExamples(t, ref, negG)
	want := make([]Score, len(cands))
	for i, c := range cands {
		want[i] = ref.ScoreClauseExamples(ctx, c, refPos, refNeg)
	}

	e := NewEvaluator(Options{Threads: 2})
	posEx := mustExamples(t, e, posG)
	negEx := mustExamples(t, e, negG)
	for r := 0; r < 2*heatDecayInterval/len(cands)+1; r++ {
		for i, c := range cands {
			if s, exact := scoreBatch(ctx, e, c, posEx, negEx, -1<<30); !exact || s != want[i] {
				t.Fatalf("round %d candidate %d: heated batch (%+v,%v), cold score %+v", r, i, s, exact, want[i])
			}
		}
	}
}
