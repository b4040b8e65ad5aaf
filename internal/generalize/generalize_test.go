package generalize

import (
	"context"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/constraints"
	"dlearn/internal/coverage"
	"dlearn/internal/logic"
	"dlearn/internal/relation"
	"dlearn/internal/subsumption"
)

// paperDB is the movie database of Table 2 with a BOM-style target, plus
// the Section 4.3 positive coverage test over it.
func paperDB() (*bottomclause.Builder, CoverFunc) {
	s := relation.NewSchema()
	s.MustAdd(relation.NewRelation("movies",
		relation.Attr("id", "imdb_id"), relation.Attr("title", "imdb_title"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("mov2genres",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("genre", "genre")))
	s.MustAdd(relation.NewRelation("mov2releasedate",
		relation.Attr("id", "imdb_id"), relation.ConstAttr("month", "month"), relation.Attr("year", "year")))
	s.MustAdd(relation.NewRelation("englishMovies", relation.Attr("id", "imdb_id")))

	in := relation.NewInstance(s)
	in.MustInsert("movies", "m1", "Superbad (2007)", "2007")
	in.MustInsert("movies", "m2", "Zoolander (2001)", "2001")
	in.MustInsert("movies", "m3", "Orphanage (2007)", "2007")
	in.MustInsert("mov2genres", "m1", "comedy")
	in.MustInsert("mov2genres", "m2", "comedy")
	in.MustInsert("mov2genres", "m3", "drama")
	in.MustInsert("mov2releasedate", "m1", "August", "2007")
	in.MustInsert("mov2releasedate", "m2", "September", "2001")
	in.MustInsert("englishMovies", "m1")
	in.MustInsert("englishMovies", "m2")

	target := relation.NewRelation("highGrossing", relation.Attr("title", "bom_title"))
	md := constraints.SimpleMD("md_title", "highGrossing", "title", "movies", "title")
	cfg := bottomclause.DefaultConfig()
	cfg.SampleSize = 20
	cfg.UseCFDs = false
	b := bottomclause.NewBuilder(in, target, []constraints.MD{md}, nil, cfg)
	return b, positiveCover(coverage.NewEvaluator(coverage.Options{Threads: 1}))
}

// positiveCover adapts the evaluator's prepared-example positive coverage
// test to a CoverFunc, preparing each ground bottom clause once.
func positiveCover(ev *coverage.Evaluator) CoverFunc {
	ctx := context.Background()
	prepared := make(map[string]*coverage.Example)
	return func(c, ground logic.Clause) bool {
		ex, ok := prepared[ground.Key()]
		if !ok {
			ex = ev.NewExample(ctx, ground)
			prepared[ground.Key()] = ex
		}
		return ev.CoversPositiveExample(ctx, c, ex)
	}
}

func TestGeneralizeExample47(t *testing.T) {
	// Example 4.7: generalizing the Superbad bottom clause to cover
	// Zoolander drops the August release-date literal (Zoolander was
	// released in September), while the comedy literal survives.
	b, covers := paperDB()
	g := New(covers)

	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gz)
	if !ok {
		t.Fatalf("generalization failed: %v", out)
	}
	if !covers(out, gz) {
		t.Fatal("generalized clause does not cover the new example")
	}
	var hasAugust, hasComedy bool
	for _, l := range out.Body {
		for _, a := range l.Args {
			if a == logic.Const("August") {
				hasAugust = true
			}
			if a == logic.Const("comedy") {
				hasComedy = true
			}
		}
	}
	if hasAugust {
		t.Error("blocking literal mov2releasedate(…, August, …) should have been removed")
	}
	if !hasComedy {
		t.Error("the shared comedy literal should survive generalization")
	}
	// The original example must still be covered (generalization only
	// drops literals, Theorem 4.6 soundness).
	gs, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	if !covers(out, gs) {
		t.Error("generalized clause no longer covers the seed example")
	}
}

func TestGeneralizeProducesSubsumingClause(t *testing.T) {
	// The generalization must θ-subsume the original clause (it is obtained
	// by dropping literals), giving the soundness direction of Prop. 4.8.
	b, covers := paperDB()
	g := New(covers)
	ch := subsumption.New(subsumption.Options{})

	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gz)
	if !ok {
		t.Fatal("generalization failed")
	}
	if sub, _ := ch.Subsumes(out, bottom); !sub {
		t.Error("generalization must θ-subsume the clause it was derived from")
	}
	if out.Length() >= bottom.Length() {
		t.Error("generalization should have removed at least one literal")
	}
}

func TestGeneralizeUncoverableExample(t *testing.T) {
	// An example whose title matches nothing cannot be covered; the
	// generalizer reports failure and leaves the clause intact when even
	// the head cannot cover, or returns the maximally generalized clause.
	b, covers := paperDB()
	g := New(covers)
	bottom, err := b.BottomClause(relation.NewTuple("highGrossing", "Superbad"))
	if err != nil {
		t.Fatal(err)
	}
	// Head-arity mismatch is rejected outright.
	bad := logic.NewClause(logic.Rel("otherTarget", logic.Var("x")))
	if _, ok := g.Generalize(bottom, bad); ok {
		t.Error("mismatched heads must not generalize")
	}
	// A completely unrelated example: the bare head covers it (it has no
	// body), so generalization succeeds by dropping everything relevant.
	gUnknown, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Completely Unknown"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(bottom, gUnknown)
	if !ok {
		t.Fatal("generalizing toward an empty ground clause should succeed (empty body covers it)")
	}
	if !covers(out, gUnknown) {
		t.Error("result does not cover the new example")
	}
}

func TestGeneralizeAlreadyCovering(t *testing.T) {
	// A clause that already covers the example is returned unchanged.
	b, covers := paperDB()
	g := New(covers)
	c := logic.NewClause(
		logic.Rel("highGrossing", logic.Var("x")),
	)
	gz, err := b.GroundBottomClause(relation.NewTuple("highGrossing", "Zoolander"))
	if err != nil {
		t.Fatal(err)
	}
	out, ok := g.Generalize(c, gz)
	if !ok || out.Length() != 0 {
		t.Fatalf("covering clause should be returned unchanged, got %v (%v)", out, ok)
	}
}
