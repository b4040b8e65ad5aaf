package bench

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"time"

	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/datagen"
	"dlearn/internal/logic"
	"dlearn/internal/persist"
)

// ScalePoint is the measurement of the data layer at one tuple-count
// multiplier: the same candidate-evaluation workload at every point, run
// against a dataset whose entity loop is multiplied by Scale, so the points
// compare how preparation, memory, snapshot size and scoring throughput grow
// with the instance.
type ScalePoint struct {
	// Scale is the tuple-count multiplier (1 = the base dataset).
	Scale int `json:"scale"`
	// Tuples and DistinctValues size the generated instance: total tuples
	// across relations and distinct interned values.
	Tuples         int `json:"tuples"`
	DistinctValues int `json:"distinct_values"`
	// Positives / Negatives are the example counts the workload grounds and
	// prepares; they stay fixed across scales so the points isolate instance
	// growth.
	Positives int `json:"positives"`
	Negatives int `json:"negatives"`
	// PrepareSeconds is the cold cost of grounding and preparing every
	// example against the scaled instance.
	PrepareSeconds float64 `json:"prepare_seconds"`
	// ResidentBytes is the in-use heap (runtime.MemStats.HeapInuse after a
	// forced GC) while the instance and prepared examples are live.
	ResidentBytes uint64 `json:"resident_bytes"`
	// SnapshotBytes is the encoded size of the prepared-example snapshot
	// (persist.EncodeExampleSet) at this scale.
	SnapshotBytes int `json:"snapshot_bytes"`
	// CoverTestsPerSecond is full-scoring throughput over the prepared
	// examples.
	CoverTestsPerSecond float64 `json:"cover_tests_per_second"`
	// LearnSeconds is the wall-clock time of a budget-clamped covering run
	// over the same example subset; LearnClauses is its definition size.
	LearnSeconds float64 `json:"learn_seconds"`
	LearnClauses int     `json:"learn_clauses"`
}

// ScaleSummary is the machine-readable result of the scale-up benchmark,
// written to BENCH_scale.json.
type ScaleSummary struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Threads    int    `json:"threads"`
	Quick      bool   `json:"quick"`
	Candidates int    `json:"candidates"`
	Rounds     int    `json:"rounds"`
	// Points are the per-multiplier measurements, ascending by scale.
	Points []ScalePoint `json:"points"`
}

// coverageScale returns the per-point workload size: candidates, positives,
// negatives, rounds.
func (o Options) coverageScale() (int, int, int, int) {
	if o.Quick {
		return 4, 10, 16, 2
	}
	return 8, 40, 60, 3
}

// scaleMultipliers returns the tuple-count multipliers to measure: quick runs
// stop at 10x so the smoke job stays fast; full runs add the 100x point.
func (o Options) scaleMultipliers() []int {
	if o.Quick {
		return []int{1, 10}
	}
	return []int{1, 10, 100}
}

// RunScale benchmarks the interned columnar data layer as the instance grows:
// one coverage workload (IMDB+OMDB with three MDs and CFD violations, fixed
// example counts, bottom-clause candidates) is repeated at 1x/10x(/100x) tuple
// multipliers, recording preparation time, resident memory, snapshot size and
// full-scoring throughput at each point.
func RunScale(ctx context.Context, o Options) (ScaleSummary, error) {
	w := o.out()
	fprintf(w, "Scale-up benchmark: data layer growth at 1x/10x(/100x) tuple multipliers\n")

	nCand, nPos, nNeg, rounds := o.coverageScale()
	lcfg := o.learnerConfig(2, o.iterationsFor("imdb"), 10)

	s := ScaleSummary{
		Experiment: "scale",
		Seed:       o.Seed,
		Threads:    o.Threads,
		Quick:      o.Quick,
		Candidates: nCand,
		Rounds:     rounds,
	}

	for _, scale := range o.scaleMultipliers() {
		mcfg := o.moviesConfig(3, 0.10)
		mcfg.Scale = scale
		ds, err := datagen.Movies(mcfg)
		if err != nil {
			return ScaleSummary{}, err
		}
		p := ds.Problem

		pos, neg, cand := nPos, nNeg, nCand
		if pos > len(p.Pos) {
			pos = len(p.Pos)
		}
		if neg > len(p.Neg) {
			neg = len(p.Neg)
		}
		if cand > pos {
			cand = pos
		}

		builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, lcfg.BottomClause)
		eval := coverage.NewEvaluator(coverage.Options{
			Subsumption: lcfg.Subsumption,
			Repair:      lcfg.Repair,
			Threads:     o.Threads,
			CacheShards: lcfg.EvalCacheShards,
		})

		prepStart := time.Now()
		var posG, negG []logic.Clause
		for _, t := range p.Pos[:pos] {
			g, err := builder.GroundBottomClause(t)
			if err != nil {
				return ScaleSummary{}, err
			}
			posG = append(posG, g)
		}
		for _, t := range p.Neg[:neg] {
			g, err := builder.GroundBottomClause(t)
			if err != nil {
				return ScaleSummary{}, err
			}
			negG = append(negG, g)
		}
		posEx, err := eval.NewExamples(ctx, posG)
		if err != nil {
			return ScaleSummary{}, err
		}
		negEx, err := eval.NewExamples(ctx, negG)
		if err != nil {
			return ScaleSummary{}, err
		}
		prepare := time.Since(prepStart)

		var cands []logic.Clause
		for _, t := range p.Pos[:cand] {
			c, err := builder.BottomClause(t)
			if err != nil {
				return ScaleSummary{}, err
			}
			cands = append(cands, c)
		}

		snapData := persist.EncodeExampleSet(coverage.SnapshotExamples(posEx, negEx))

		// Resident memory with the scaled instance, the prepared examples and
		// the snapshot buffer all live — the data-layer footprint the interned
		// columnar backend is accountable for.
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)

		// Untimed warm-up so the timed rounds measure scoring, not cache fill.
		for _, c := range cands {
			eval.ScoreClauseExamples(ctx, c, posEx, negEx)
		}
		if err := ctx.Err(); err != nil {
			return ScaleSummary{}, err
		}
		fullStart := time.Now()
		for r := 0; r < rounds; r++ {
			for _, c := range cands {
				eval.ScoreClauseExamples(ctx, c, posEx, negEx)
			}
		}
		if err := ctx.Err(); err != nil {
			return ScaleSummary{}, err
		}
		full := time.Since(fullStart)
		tests := float64(rounds) * float64(len(cands)) * float64(len(posEx)+len(negEx))

		// A budget-clamped covering run over the same subset: the end-to-end
		// cost a learner pays at this scale. The subsumption node budget is
		// clamped in full mode too: identical budgets at every multiplier are what make the
		// learn_seconds column a scaling curve rather than a search-luck draw,
		// and an unbounded search at 100x data would swamp the benchmark.
		learnCfg := lcfg
		learnCfg.GeneralizationSample = 4
		learnCfg.NegativeSearchSample = 16
		learnCfg.MaxClauses = 4
		learnCfg.Subsumption.MaxNodes = 10000
		benchProblem := p
		benchProblem.Pos = p.Pos[:pos]
		benchProblem.Neg = p.Neg[:neg]
		learnStart := time.Now()
		def, _, err := core.NewLearner(learnCfg).LearnContext(ctx, benchProblem)
		if err != nil {
			return ScaleSummary{}, err
		}
		learn := time.Since(learnStart)

		pt := ScalePoint{
			Scale:               scale,
			Tuples:              ds.Stats().Tuples,
			DistinctValues:      p.Instance.DistinctValueCount(),
			Positives:           len(posEx),
			Negatives:           len(negEx),
			PrepareSeconds:      prepare.Seconds(),
			ResidentBytes:       mem.HeapInuse,
			SnapshotBytes:       len(snapData),
			CoverTestsPerSecond: tests / full.Seconds(),
			LearnSeconds:        learn.Seconds(),
			LearnClauses:        def.Len(),
		}
		s.Points = append(s.Points, pt)
		fprintf(w, "  scale %3dx: %8d tuples, %7d values — prepare=%.3fs resident=%.1fMB snapshot=%d bytes  %.0f cover tests/s  learn=%.3fs (%d clauses)\n",
			pt.Scale, pt.Tuples, pt.DistinctValues, pt.PrepareSeconds,
			float64(pt.ResidentBytes)/(1<<20), pt.SnapshotBytes,
			pt.CoverTestsPerSecond, pt.LearnSeconds, pt.LearnClauses)
	}
	return s, nil
}

// WriteScaleJSON writes the scale summary as indented JSON to path.
func WriteScaleJSON(path string, s ScaleSummary) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
