package coverage

import (
	"context"
	"time"

	"dlearn/internal/logic"
	"dlearn/internal/persist"
	"dlearn/internal/subsumption"
)

// Snapshot extracts the persistable form of a prepared example: the ground
// bottom clause plus the clauses of its CFD-only and full repair expansions.
// Restoring the snapshot skips those expansions, which are what make a cold
// start slow; the subsumption preparations over the clauses are cheap and
// rebuilt on load.
func (ex *Example) Snapshot() persist.ExampleSnapshot {
	_, cfdExp := ex.cfdSide(context.Background())
	return persist.ExampleSnapshot{
		Ground:   ex.Ground,
		CFDExp:   preparedClauses(cfdExp),
		Repaired: preparedClauses(ex.repaired),
	}
}

func preparedClauses(ps []*subsumption.Prepared) []logic.Clause {
	if len(ps) == 0 {
		return nil
	}
	out := make([]logic.Clause, len(ps))
	for i, p := range ps {
		out[i] = p.Clause()
	}
	return out
}

// RestoreExample rebuilds a prepared example from its snapshot under the
// evaluator's options. The ground clause and the repaired clauses are
// prepared now; the stored CFD expansion is prepared on first need, like the
// CFD side of any other example, but never re-expanded. The restored example
// is behaviorally identical to the one NewExample would produce from the
// same ground clause under the same expansion caps.
func (e *Evaluator) RestoreExample(s persist.ExampleSnapshot) *Example {
	ex := e.lazyExample(s.Ground)
	ex.cfdStored, ex.cfdClauses = true, s.CFDExp
	for _, c := range s.Repaired {
		ex.repaired = append(ex.repaired, e.checker.Prepare(c))
	}
	return ex
}

// SnapshotExamples packages prepared positive and negative examples as an
// encodable set.
func SnapshotExamples(pos, neg []*Example) persist.ExampleSet {
	set := persist.ExampleSet{}
	for _, ex := range pos {
		set.Pos = append(set.Pos, ex.Snapshot())
	}
	for _, ex := range neg {
		set.Neg = append(set.Neg, ex.Snapshot())
	}
	return set
}

// SnapshotOutcome reports what LoadOrPrepareExamples did and how long each
// step took, so callers (the learner's observer events, the bench harness)
// can surface the cold-vs-warm difference instead of claiming it.
type SnapshotOutcome struct {
	// Hit reports whether the examples were served from the store.
	Hit bool
	// Reason explains a miss: "no store", "not found", a decode error, or
	// "stale examples" when the stored set no longer matches the requested
	// ground clauses.
	Reason string
	// Bytes is the snapshot size read (on a hit) or written (after a miss).
	Bytes int
	// LoadTime is the time spent loading, decoding and restoring on a hit
	// (including a failed attempt before a miss).
	LoadTime time.Duration
	// PrepareTime is the time spent preparing fresh examples on a miss.
	PrepareTime time.Duration
	// WriteTime is the time spent encoding and saving after a miss.
	WriteTime time.Duration
	// WriteErr records a failed write-back; the prepared examples are still
	// returned, so a read-only store degrades to a cache that never hits.
	WriteErr error
}

// LoadOrPrepareExamples returns prepared examples for the given ground
// bottom clauses, serving them from the snapshot store when a valid snapshot
// exists under the key and preparing them fresh (then writing the snapshot
// back) otherwise.
//
// The key must be a content hash over everything that determines the
// stored expansions — ground clauses AND expansion caps (see
// persist.FingerprintInputs, which covers both). As defense in depth the
// stored ground clauses are re-verified against the requested ones, so a
// key that under-hashes the clause inputs degrades to a miss; the expansion
// caps the stored clauses were built under are NOT re-verified and are
// trusted from the key alone. The search budget is not stored: restored
// examples are prepared under this evaluator's options. Every
// detected failure mode — missing snapshot, corrupted or truncated file,
// version mismatch, stale contents — falls back to fresh preparation.
//
// A nil store always prepares fresh. The only error returned is a cancelled
// context during preparation.
func (e *Evaluator) LoadOrPrepareExamples(ctx context.Context, store persist.Store, key persist.Key, posG, negG []logic.Clause) (pos, neg []*Example, out SnapshotOutcome, err error) {
	if store == nil {
		out.Reason = "no store"
	} else {
		loadStart := time.Now()
		pos, neg, out.Bytes, out.Reason = e.loadExamples(store, key, posG, negG)
		out.LoadTime = time.Since(loadStart)
		if out.Reason == "" {
			out.Hit = true
			return pos, neg, out, nil
		}
	}

	prepStart := time.Now()
	pos, err = e.NewExamples(ctx, posG)
	if err != nil {
		return nil, nil, out, err
	}
	neg, err = e.NewExamples(ctx, negG)
	if err != nil {
		return nil, nil, out, err
	}
	out.PrepareTime = time.Since(prepStart)

	if store != nil {
		writeStart := time.Now()
		data := persist.EncodeExampleSet(SnapshotExamples(pos, neg))
		out.Bytes = len(data)
		out.WriteErr = store.Save(key, data)
		out.WriteTime = time.Since(writeStart)
	}
	return pos, neg, out, nil
}

// loadExamples attempts the snapshot fast path. It returns a non-empty
// reason when the attempt failed and fresh preparation should run.
func (e *Evaluator) loadExamples(store persist.Store, key persist.Key, posG, negG []logic.Clause) (pos, neg []*Example, bytes int, reason string) {
	data, err := store.Load(key)
	if err == persist.ErrNotFound {
		return nil, nil, 0, "not found"
	}
	if err != nil {
		return nil, nil, 0, err.Error()
	}
	set, err := persist.DecodeExampleSet(data)
	if err != nil {
		return nil, nil, 0, err.Error()
	}
	if len(set.Pos) != len(posG) || len(set.Neg) != len(negG) {
		return nil, nil, 0, "stale examples"
	}
	for i := range set.Pos {
		if !set.Pos[i].Ground.Equal(posG[i]) {
			return nil, nil, 0, "stale examples"
		}
	}
	for i := range set.Neg {
		if !set.Neg[i].Ground.Equal(negG[i]) {
			return nil, nil, 0, "stale examples"
		}
	}
	pos = make([]*Example, len(set.Pos))
	for i := range set.Pos {
		pos[i] = e.RestoreExample(set.Pos[i])
	}
	neg = make([]*Example, len(set.Neg))
	for i := range set.Neg {
		neg[i] = e.RestoreExample(set.Neg[i])
	}
	return pos, neg, len(data), ""
}
