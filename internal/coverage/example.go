package coverage

import (
	"context"
	"sync"
	"sync/atomic"

	"dlearn/internal/logic"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// Example is a training or test example prepared for repeated coverage
// testing: its ground bottom clause with the subsumed side precompiled, its
// CFD side — the MD-only projection G_md^e and the CFD-only repair
// expansion (Section 4.3) — and its full repaired-clause expansion (used for
// negative coverage, Definition 3.6). Preparing an example once and probing
// it with thousands of candidate clauses is what makes the covering search
// practical.
type Example struct {
	// Ground is the ground bottom clause of the example.
	Ground logic.Clause

	hasCFD   bool
	prep     *subsumption.Prepared
	repaired []*subsumption.Prepared

	// The CFD side is prepared at most once, on first need (see cfdSide):
	// NewExample settles it up front, while restored examples and the
	// examples prediction builds defer it until a probe gets past the plain
	// θ-subsumption test, which most probes never do. A restored example
	// sets cfdStored and carries its stored CFD expansion in cfdClauses, so
	// its first need prepares those clauses instead of re-expanding Ground.
	ev         *Evaluator
	cfdOnce    sync.Once
	cfdStored  bool
	cfdClauses []logic.Clause
	stripped   *subsumption.Prepared
	cfdExp     []*subsumption.Prepared

	// heat counts the bound-closing events this example produced across the
	// batches that scored it: misses when used as a positive, covers when
	// used as a negative. Batch scoring schedules the hottest examples first
	// so the early-exit bound closes as soon as possible (see adaptiveOrder).
	// Maintained atomically by the evaluator's workers.
	heat atomic.Int64
}

// Heat returns the example's accumulated bound-closing event count.
func (ex *Example) Heat() int64 { return ex.heat.Load() }

// cfdSide returns the example's prepared CFD side, preparing it on the first
// call. Preparation is not retried: an example whose CFD side was prepared
// under a cancelled context keeps the truncated expansion and, like a
// NewExamples batch abandoned by cancellation, must not be reused.
func (ex *Example) cfdSide(ctx context.Context) (*subsumption.Prepared, []*subsumption.Prepared) {
	ex.cfdOnce.Do(func() {
		e := ex.ev
		ex.stripped = e.checker.Prepare(StripCFDConnected(ex.Ground))
		clauses := ex.cfdClauses
		if !ex.cfdStored {
			clauses = repair.RepairedClausesContext(ctx, ex.Ground, e.cfdOptions())
		}
		for _, c := range clauses {
			ex.cfdExp = append(ex.cfdExp, e.checker.Prepare(c))
		}
	})
	return ex.stripped, ex.cfdExp
}

// lazyExample prepares a ground bottom clause for positive coverage tests
// only: the subsumed side up front, the CFD side on first need, and no full
// repair expansion (prediction never tests negative coverage).
func (e *Evaluator) lazyExample(ground logic.Clause) *Example {
	return &Example{
		Ground: ground,
		hasCFD: clauseHasCFDRepairs(ground),
		prep:   e.checker.Prepare(ground),
		ev:     e,
	}
}

// NewExample prepares a ground bottom clause for repeated coverage tests.
func (e *Evaluator) NewExample(ctx context.Context, ground logic.Clause) *Example {
	ex := e.lazyExample(ground)
	ex.cfdSide(ctx)
	for _, c := range repair.RepairedClausesContext(ctx, ground, e.repOpts) {
		ex.repaired = append(ex.repaired, e.checker.Prepare(c))
	}
	return ex
}

// NewExamples prepares a batch of ground bottom clauses in parallel. A
// cancelled context returns ctx.Err() alongside the partial batch: the
// result still has one non-nil entry per ground clause (unprocessed entries
// are filled with conservative empty-clause stubs), but a batch returned
// with an error was abandoned mid-preparation and must not be scored.
// Earlier versions swallowed the cancellation and handed the stub-filled
// batch back silently, leaving callers that forgot the ctx.Err() check
// scoring stubs; the explicit error closes that hole.
func (e *Evaluator) NewExamples(ctx context.Context, grounds []logic.Clause) ([]*Example, error) {
	out := make([]*Example, len(grounds))
	e.forEachParallel(ctx, len(grounds), func(i int) {
		out[i] = e.NewExample(ctx, grounds[i])
	})
	// A cancelled pool leaves entries unprocessed. Fill them with stubs so
	// the no-nil-entries invariant holds even for callers that inspect the
	// batch despite the error; the batch is being abandoned, so the stubs
	// only have to answer conservatively (no coverage), never correctly,
	// which keeps the fill O(1) per entry instead of preparing the real
	// clause.
	var empty *subsumption.Prepared
	for i := range out {
		if out[i] == nil {
			if empty == nil {
				empty = e.checker.Prepare(logic.Clause{})
			}
			stub := &Example{Ground: grounds[i], prep: empty, stripped: empty}
			stub.cfdOnce.Do(func() {})
			out[i] = stub
		}
	}
	return out, ctx.Err()
}

// CoversPositiveExample reports whether clause c covers the prepared
// positive example under Definition 3.4, following Section 4.3 (see
// probe.coversPositive). For one-shot tests the candidate is compiled
// directly; batch APIs resolve a shared probe once and reuse its compilation
// across examples and workers.
func (e *Evaluator) CoversPositiveExample(ctx context.Context, c logic.Clause, ex *Example) bool {
	return e.newProbe(c, false).coversPositive(ctx, ex)
}

// CountNegativeExamples counts the prepared examples that clause c covers
// as negatives under Definition 3.6, in parallel.
func (e *Evaluator) CountNegativeExamples(ctx context.Context, c logic.Clause, exs []*Example) int {
	p := e.newProbe(c, true)
	return bitsFromMask(e.maskParallelExamples(ctx, exs, func(ex *Example) bool { return p.coversNegative(ctx, ex) })).Count()
}

// ScoreClauseExamples computes a clause's exact score over prepared
// examples.
func (e *Evaluator) ScoreClauseExamples(ctx context.Context, c logic.Clause, pos, neg []*Example) Score {
	return Score{
		PositivesCovered: e.CoverageBits(ctx, c, pos).Count(),
		NegativesCovered: e.CountNegativeExamples(ctx, c, neg),
	}
}

// DefinitionCoversContext reports whether any clause of the definition
// covers the (positive-style) example with ground bottom clause ge. It is
// the prediction rule used when evaluating a learned definition on test
// data, and runs the same prepared-example test as learning: ge is prepared
// once for every clause of the definition, its CFD side only if some probe
// needs it. A cancelled test conservatively reports no coverage (callers
// check ctx.Err()).
func (e *Evaluator) DefinitionCoversContext(ctx context.Context, d *logic.Definition, ge logic.Clause) bool {
	ex := e.lazyExample(ge)
	for _, c := range d.Clauses {
		if e.CoversPositiveExample(ctx, c, ex) {
			return true
		}
	}
	return false
}

func (e *Evaluator) maskParallelExamples(ctx context.Context, exs []*Example, pred func(*Example) bool) []bool {
	mask := make([]bool, len(exs))
	e.forEachParallel(ctx, len(exs), func(i int) {
		mask[i] = pred(exs[i])
	})
	return mask
}

// forEachParallel runs fn(i) for i in [0, n) on the evaluator's worker pool.
// Workers poll ctx between items and skip the remaining work once it is
// cancelled, so a cancelled batch drains promptly instead of finishing every
// queued coverage test.
func (e *Evaluator) forEachParallel(ctx context.Context, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	workers := e.threads
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobs {
				if ctx.Err() != nil {
					break
				}
				fn(i)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
