package core_test

import (
	"context"
	"testing"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
	"dlearn/internal/logic"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
)

// TestPredictionMatchesLearningCoverage is the differential check between
// the two ways a definition's coverage of a tuple is asked: prediction
// (DefinitionCoversContext over the tuple's ground bottom clause, preparing
// the CFD side only on need) and learning (CoverageBits over examples
// prepared eagerly, and over the same examples restored from a snapshot).
// On definitions learned from generated IMDB data with three MDs and CFD
// violations, and from DBLP data, every held-out tuple — and every training
// tuple, which the definition covers far more often — must get the same
// answer from all three.
func TestPredictionMatchesLearningCoverage(t *testing.T) {
	cases := []struct {
		name       string
		iterations int
		gen        func() (*datagen.Dataset, error)
	}{
		{"imdb", 3, func() (*datagen.Dataset, error) {
			cfg := datagen.DefaultMoviesConfig()
			cfg.Movies, cfg.MDCount, cfg.ViolationRate = 60, 3, 0.1
			cfg.Positives, cfg.Negatives, cfg.Seed = 16, 32, 11
			return datagen.Movies(cfg)
		}},
		{"dblp", 2, func() (*datagen.Dataset, error) {
			cfg := datagen.DefaultCitationsConfig()
			cfg.Papers, cfg.ViolationRate = 60, 0.1
			cfg.Positives, cfg.Negatives, cfg.Seed = 16, 32, 13
			return datagen.Citations(cfg)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			ds, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			split, err := eval.HoldOut(ds.Problem.Pos, ds.Problem.Neg, 0.4, 7)
			if err != nil {
				t.Fatal(err)
			}
			p := ds.Problem
			p.Pos, p.Neg = split.TrainPos, split.TrainNeg
			cfg := core.DefaultConfig()
			cfg.Threads = 2
			cfg.BottomClause.Iterations = tc.iterations
			cfg.BottomClause.SampleSize = 3
			cfg.BottomClause.KM = 1
			cfg.GeneralizationSample = 4
			cfg.NegativeSearchSample = 16
			cfg.MinPositiveCoverage = 1
			cfg.MaxClauses = 6
			cfg.Subsumption.MaxNodes = 10000
			def, _, err := core.NewLearner(cfg).LearnContext(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if def.Len() == 0 {
				t.Fatal("learned an empty definition; the differential would be vacuous")
			}

			builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
			var grounds []logic.Clause
			cfdGrounds := 0
			var tuples []relation.Tuple
			for _, ts := range [][]relation.Tuple{split.TestPos, split.TestNeg, split.TrainPos, split.TrainNeg} {
				tuples = append(tuples, ts...)
			}
			for _, tu := range tuples {
				g, err := builder.GroundBottomClause(tu)
				if err != nil {
					t.Fatal(err)
				}
				if hasCFDRepair(g) {
					cfdGrounds++
				}
				grounds = append(grounds, g)
			}
			if tc.name == "imdb" {
				if len(p.MDs) != 3 {
					t.Fatalf("imdb problem has %d MDs, want 3", len(p.MDs))
				}
				if cfdGrounds == 0 {
					t.Fatal("no held-out ground clause carries CFD repair literals")
				}
			}

			opts := coverage.Options{Subsumption: cfg.Subsumption, Repair: cfg.Repair, Threads: cfg.Threads}
			ev := coverage.NewEvaluator(opts)
			eager, err := ev.NewExamples(ctx, grounds)
			if err != nil {
				t.Fatal(err)
			}
			set, err := persist.DecodeExampleSet(persist.EncodeExampleSet(coverage.SnapshotExamples(eager, nil)))
			if err != nil {
				t.Fatal(err)
			}
			restoring := coverage.NewEvaluator(opts)
			restored := make([]*coverage.Example, len(set.Pos))
			for i, s := range set.Pos {
				restored[i] = restoring.RestoreExample(s)
			}
			eagerBits := coverage.NewBits(len(grounds))
			restoredBits := coverage.NewBits(len(grounds))
			for _, c := range def.Clauses {
				eagerBits.Or(ev.CoverageBits(ctx, c, eager))
				restoredBits.Or(restoring.CoverageBits(ctx, c, restored))
			}

			predicting := coverage.NewEvaluator(opts)
			covered := 0
			for i, g := range grounds {
				got := predicting.DefinitionCoversContext(ctx, def, g)
				if got != eagerBits.Get(i) || got != restoredBits.Get(i) {
					t.Errorf("tuple %d: prediction %v, eager coverage %v, restored coverage %v\n%s",
						i, got, eagerBits.Get(i), restoredBits.Get(i), g)
				}
				if got {
					covered++
				}
			}
			if covered == 0 {
				t.Fatal("the definition covers no tuple; the differential would be vacuous")
			}
			t.Logf("%d tuples (%d with CFD repairs), %d covered by %d clauses",
				len(grounds), cfdGrounds, covered, def.Len())
		})
	}
}

// hasCFDRepair reports whether a clause carries a CFD repair literal.
func hasCFDRepair(c logic.Clause) bool {
	for _, l := range c.Body {
		if l.IsRepair() && l.Origin == logic.OriginCFD {
			return true
		}
	}
	return false
}
