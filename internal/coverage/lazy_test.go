package coverage

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dlearn/internal/logic"
)

// TestLazyExampleConcurrentProbes has many goroutines probe the same lazily
// prepared examples at once, so the first probes that need an example's CFD
// side race to prepare it. Run under -race it checks the sync.Once hand-off;
// the assertions check every answer equals the one over an eagerly prepared
// example.
func TestLazyExampleConcurrentProbes(t *testing.T) {
	_, posG, negG := benchExamples(t, 40, 6, 4)
	// Positives 0 and 20 violate the CFD: candidates that miss them plainly
	// reach their CFD side, and cfdCandidate reaches every example's.
	grounds := append(posG, negG...)
	cands := append(benchCandidates(), westernCandidate(), cfdCandidate())

	ctx := context.Background()
	ref := NewEvaluator(Options{Threads: 1})
	eager := mustExamples(t, ref, grounds)
	want := make([][]bool, len(cands))
	for ci, c := range cands {
		want[ci] = make([]bool, len(grounds))
		for k, ex := range eager {
			want[ci][k] = ref.CoversPositiveExample(ctx, c, ex)
		}
	}

	e := NewEvaluator(Options{Threads: 1})
	lazy := make([]*Example, len(grounds))
	for k, g := range grounds {
		lazy[k] = e.lazyExample(g)
	}
	const workers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Every worker walks the examples in the same order but starts
			// at a different candidate, so first touches collide.
			for k, ex := range lazy {
				for n := range cands {
					ci := (w + n) % len(cands)
					if got := e.CoversPositiveExample(ctx, cands[ci], ex); got != want[ci][k] {
						t.Errorf("worker %d: candidate %d example %d: lazy %v, eager %v", w, ci, k, got, want[ci][k])
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	prepared := 0
	for _, ex := range lazy {
		if ex.hasCFD && ex.stripped != nil {
			prepared++
		}
	}
	if prepared == 0 {
		t.Fatal("no CFD-carrying example was probed; the test exercised no lazy preparation")
	}
}

// TestPredictionExampleSnapshotMatchesEager pins the snapshot contract of a
// lazily prepared example: Snapshot forces its CFD side, and apart from the
// full repair expansion (never prepared for prediction) it equals the
// snapshot of an eagerly prepared example.
func TestPredictionExampleSnapshotMatchesEager(t *testing.T) {
	_, posG, _ := benchExamples(t, 40, 3, 1)
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 1})
	for i, g := range posG {
		lazy := e.lazyExample(g).Snapshot()
		eager := e.NewExample(ctx, g).Snapshot()
		eager.Repaired = nil
		if !reflect.DeepEqual(lazy, eager) {
			t.Fatalf("example %d: lazy snapshot differs from eager", i)
		}
	}
}

// cfdCandidate joins the locale relation twice under the locale CFD's
// repair group, so its coverage test expands CFD repairs on both sides.
func cfdCandidate() logic.Clause {
	x, tt, y, z := logic.Var("x"), logic.Var("t"), logic.Var("y"), logic.Var("z")
	vx, vt, c1, c2 := logic.Var("vx"), logic.Var("vt"), logic.Var("c1"), logic.Var("c2")
	sim := logic.Condition{Op: logic.CondSim, L: x, R: tt}
	neq := logic.Condition{Op: logic.CondNeq, L: c1, R: c2}
	return logic.NewClause(
		logic.Rel("highGrossing", x),
		logic.Rel("movies", y, tt, z),
		logic.Rel("mov2genres", y, logic.Const("comedy")),
		logic.Sim(x, tt),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, x, vx, sim),
		logic.RepairInGroup("md_title", "md_title#c", logic.OriginMD, tt, vt, sim),
		logic.Eq(vx, vt),
		logic.Rel("mov2locale", tt, logic.Const("English"), c1),
		logic.Rel("mov2locale", tt, logic.Const("English"), c2),
		logic.RepairInGroup("cfd_locale", "cfd_locale#rhs1", logic.OriginCFD, c1, c2, neq),
		logic.RepairInGroup("cfd_locale", "cfd_locale#rhs2", logic.OriginCFD, c2, c1, neq),
	)
}
