package coverage

import (
	"context"
	"reflect"
	"testing"

	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/subsumption"
)

// planTestExamples prepares the movie examples (positives: all three
// highGrossing candidates; negatives reuse the same grounds) on the given
// evaluator.
func planTestExamples(t *testing.T, e *Evaluator) []*Example {
	t.Helper()
	b := builderFor(false)
	var grounds []logic.Clause
	for _, title := range []string{"Superbad", "Zoolander", "Orphanage"} {
		g, err := b.GroundBottomClause(relation.NewTuple("highGrossing", title))
		if err != nil {
			t.Fatal(err)
		}
		grounds = append(grounds, g)
	}
	exs, err := e.NewExamples(context.Background(), grounds)
	if err != nil {
		t.Fatal(err)
	}
	return exs
}

// TestScoringPlannerInvariance pins the planner's permutation property at
// the scoring layer: every score computed through the probe-based paths is
// identical with the planner on and off.
func TestScoringPlannerInvariance(t *testing.T) {
	ctx := context.Background()
	on := NewEvaluator(Options{Threads: 2})
	off := NewEvaluator(Options{Threads: 2, Subsumption: subsumption.Options{DisablePlanner: true}})
	exsOn := planTestExamples(t, on)
	exsOff := planTestExamples(t, off)
	cands := []logic.Clause{comedyClause(), dramaClause()}

	for i, c := range cands {
		sOn := on.ScoreClauseExamples(ctx, c, exsOn, exsOn)
		sOff := off.ScoreClauseExamples(ctx, c, exsOff, exsOff)
		if sOn != sOff {
			t.Errorf("candidate %d: planner-on score %+v != planner-off %+v", i, sOn, sOff)
		}
		bOn, exOn := scoreBatch(ctx, on, c, exsOn, exsOn, -1<<30)
		bOff, exOff := scoreBatch(ctx, off, c, exsOff, exsOff, -1<<30)
		if bOn != bOff || exOn != exOff {
			t.Errorf("candidate %d: planner-on batch (%+v,%v) != planner-off (%+v,%v)", i, bOn, exOn, bOff, exOff)
		}
	}
	rOn := on.ScoreCandidates(ctx, cands, exsOn, nil, -1<<30, 2)
	rOff := off.ScoreCandidates(ctx, cands, exsOff, nil, -1<<30, 2)
	if !reflect.DeepEqual(rOn, rOff) {
		t.Errorf("ScoreCandidates diverged: planner-on %+v, planner-off %+v", rOn, rOff)
	}
}

// TestPlanCountersAccumulate pins the plan telemetry: probe-based scoring
// advances the evaluator's counters, planned probes only when the planner is
// enabled.
func TestPlanCountersAccumulate(t *testing.T) {
	ctx := context.Background()
	on := NewEvaluator(Options{Threads: 2})
	exs := planTestExamples(t, on)
	if snap := on.PlanSnapshot(); snap.Probes != 0 || snap.Planned != 0 || snap.Nodes != 0 {
		t.Fatalf("fresh evaluator has nonzero plan counters: %+v", snap)
	}
	on.ScoreClauseExamples(ctx, comedyClause(), exs, exs)
	snap := on.PlanSnapshot()
	if snap.Probes == 0 || snap.Planned == 0 || snap.Nodes == 0 {
		t.Fatalf("planner-on scoring left counters empty: %+v", snap)
	}
	if snap.Planned > snap.Probes {
		t.Fatalf("planned %d exceeds probes %d", snap.Planned, snap.Probes)
	}

	off := NewEvaluator(Options{Threads: 2, Subsumption: subsumption.Options{DisablePlanner: true}})
	exsOff := planTestExamples(t, off)
	off.ScoreClauseExamples(ctx, comedyClause(), exsOff, exsOff)
	snapOff := off.PlanSnapshot()
	if snapOff.Probes == 0 || snapOff.Nodes == 0 {
		t.Fatalf("planner-off scoring left counters empty: %+v", snapOff)
	}
	if snapOff.Planned != 0 {
		t.Fatalf("planner-off scoring planned %d probes", snapOff.Planned)
	}
}
