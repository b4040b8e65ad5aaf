package coverage

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dlearn/internal/logic"
)

// TestBitsMatchesReference is the property test for the bitmap: a long
// random op sequence applied to a Bits and to a map-based reference set must
// agree on every observation, across sizes that cover the word-boundary
// edge cases.
func TestBitsMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 63, 64, 65, 130, 200} {
		rng := rand.New(rand.NewSource(int64(n) + 42))
		b := NewBits(n)
		ref := make(map[int]bool)
		check := func(step int) {
			if got, want := b.Count(), len(ref); got != want {
				t.Fatalf("n=%d step %d: Count = %d, want %d", n, step, got, want)
			}
			if got, want := b.Any(), len(ref) > 0; got != want {
				t.Fatalf("n=%d step %d: Any = %v, want %v", n, step, got, want)
			}
			for i := 0; i < n; i++ {
				if b.Get(i) != ref[i] {
					t.Fatalf("n=%d step %d: Get(%d) = %v, want %v", n, step, i, b.Get(i), ref[i])
				}
			}
			// Indices and Next must walk exactly the reference set in order.
			want := make([]int, 0, len(ref))
			for i := 0; i < n; i++ {
				if ref[i] {
					want = append(want, i)
				}
			}
			got := b.Indices()
			if len(got) != len(want) {
				t.Fatalf("n=%d step %d: Indices = %v, want %v", n, step, got, want)
			}
			next := 0
			for k, w := range want {
				if got[k] != w {
					t.Fatalf("n=%d step %d: Indices[%d] = %d, want %d", n, step, k, got[k], w)
				}
				if i := b.Next(next); i != w {
					t.Fatalf("n=%d step %d: Next(%d) = %d, want %d", n, step, next, i, w)
				}
				next = w + 1
			}
			if i := b.Next(next); i != -1 {
				t.Fatalf("n=%d step %d: Next past the last set bit = %d, want -1", n, step, i)
			}
		}
		for step := 0; step < 300; step++ {
			if n == 0 {
				break
			}
			switch rng.Intn(5) {
			case 0:
				i := rng.Intn(n)
				b.Set(i)
				ref[i] = true
			case 1:
				i := rng.Intn(n)
				b.Clear(i)
				delete(ref, i)
			case 2: // AndNot with a random bitmap
				o := NewBits(n)
				for i := 0; i < n; i++ {
					if rng.Intn(3) == 0 {
						o.Set(i)
						delete(ref, i)
					}
				}
				b.AndNot(o)
			case 3: // And with a random bitmap
				o := NewBits(n)
				keep := make(map[int]bool)
				for i := 0; i < n; i++ {
					if rng.Intn(2) == 0 {
						o.Set(i)
						if ref[i] {
							keep[i] = true
						}
					}
				}
				b.And(o)
				ref = keep
			case 4: // Or with a random bitmap
				o := NewBits(n)
				for i := 0; i < n; i++ {
					if rng.Intn(4) == 0 {
						o.Set(i)
						ref[i] = true
					}
				}
				b.Or(o)
			}
			check(step)
		}
	}
}

// TestFullBits checks the all-set constructor across word boundaries.
func TestFullBits(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := FullBits(n)
		if b.Count() != n {
			t.Errorf("FullBits(%d).Count = %d", n, b.Count())
		}
		if n > 0 && (!b.Get(0) || !b.Get(n-1)) {
			t.Errorf("FullBits(%d) endpoints not set", n)
		}
		// No bit beyond n may leak into Count after an AndNot with itself.
		c := b.Clone()
		c.AndNot(b)
		if c.Any() {
			t.Errorf("FullBits(%d) AndNot itself leaves bits: %v", n, c.Indices())
		}
	}
}

// TestCloneIsIndependent guards against aliased words.
func TestCloneIsIndependent(t *testing.T) {
	b := NewBits(10)
	b.Set(3)
	c := b.Clone()
	c.Set(7)
	if b.Get(7) || !c.Get(3) {
		t.Error("Clone shares storage with the original")
	}
}

// TestCoverageBitsMatchesCoveredExamples checks the batch bitmap against
// the one-shot test it parallelizes: same clause, same examples, same
// coverage, bit for bit.
func TestCoverageBitsMatchesCoveredExamples(t *testing.T) {
	_, posG, _ := benchExamples(t, 40, 6, 1)
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 4})
	posEx := mustExamples(t, e, posG)
	for ci, c := range append(benchCandidates(), westernCandidate()) {
		bits := e.CoverageBits(ctx, c, posEx)
		var want []int
		for i, ex := range posEx {
			if e.CoversPositiveExample(ctx, c, ex) {
				want = append(want, i)
			}
		}
		if got := bits.Indices(); !slices.Equal(got, want) {
			t.Fatalf("candidate %d: CoverageBits = %v, one-shot tests = %v", ci, got, want)
		}
		if bits.Count() != len(want) {
			t.Fatalf("candidate %d: bitmap count %d, want %d", ci, bits.Count(), len(want))
		}
	}
}

// TestUncoveredBitmapMatchesRecount is the cross-iteration property test of
// the covering loop's frontier maintenance: simulate the loop's accept
// iterations with real clauses, maintaining uncovered incrementally via
// AndNot, and after every step compare against a from-scratch recount that
// rescores every accepted clause over every example. The two must agree
// bit for bit — this is the invariant that lets the learner never rescore
// an accepted clause.
func TestUncoveredBitmapMatchesRecount(t *testing.T) {
	_, posG, _ := benchExamples(t, 60, 8, 1)
	ctx := context.Background()
	e := NewEvaluator(Options{Threads: 4})
	posEx := mustExamples(t, e, posG)

	var accepted []logic.Clause
	uncovered := FullBits(len(posEx))
	for _, c := range benchCandidates() {
		bits := e.CoverageBits(ctx, c, posEx)
		uncovered.AndNot(bits)
		accepted = append(accepted, c)

		// From-scratch recount: example i is uncovered iff no accepted
		// clause covers it.
		for i, ex := range posEx {
			coveredByAny := false
			for _, a := range accepted {
				if e.CoversPositiveExample(ctx, a, ex) {
					coveredByAny = true
					break
				}
			}
			if uncovered.Get(i) == coveredByAny {
				t.Fatalf("after %d accepted clauses: bitmap says uncovered(%d)=%v, recount says covered=%v",
					len(accepted), i, uncovered.Get(i), coveredByAny)
			}
		}
	}
	if !uncovered.Any() && len(posEx) > 0 {
		// The bench candidates cover only the comedy positives plus the
		// over-general clause which covers everything; if everything ended
		// covered the property above was vacuous for the tail. Not an error,
		// but make sure at least one step had a non-trivial frontier.
		t.Log("frontier emptied; property held on every prefix")
	}
}
