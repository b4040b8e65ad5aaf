package main

import (
	"context"
	"fmt"
	"time"

	"dlearn"
	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/datagen"
	"dlearn/internal/eval"
	"dlearn/internal/persist"
	"dlearn/internal/relation"
)

// libProblem is one generated learning task split into the training problem
// the engine sees and the held-out tuples its model is scored on.
type libProblem struct {
	name    string
	problem core.Problem
	test    []relation.Tuple
	labels  []bool
}

// split holds out testFrac of the dataset's examples, seeded by seed.
func split(ds *datagen.Dataset, testFrac float64, seed int64) (libProblem, error) {
	s, err := eval.HoldOut(ds.Problem.Pos, ds.Problem.Neg, testFrac, seed)
	if err != nil {
		return libProblem{}, err
	}
	p := ds.Problem
	p.Pos, p.Neg = s.TrainPos, s.TrainNeg
	lp := libProblem{name: ds.Name, problem: p}
	for _, t := range s.TestPos {
		lp.test, lp.labels = append(lp.test, t), append(lp.labels, true)
	}
	for _, t := range s.TestNeg {
		lp.test, lp.labels = append(lp.test, t), append(lp.labels, false)
	}
	return lp, nil
}

// problemSeed derives the generator seed of problem i of a run.
func problemSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// learnerConfig is the engine configuration shared by the library
// workloads: quick-size search settings that still learn at least one
// clause on every generated problem, and at most e.threads coverage threads
// (one candidate at a time, so threads are the only parallelism).
func learnerConfig(e env, iterations, sampleSize, km int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Threads = e.threads
	cfg.CandidateParallelism = 1
	cfg.Seed = 1
	cfg.BottomClause.Iterations = iterations
	cfg.BottomClause.SampleSize = sampleSize
	cfg.BottomClause.KM = km
	cfg.GeneralizationSample = 4
	cfg.NegativeSearchSample = 16
	cfg.MinPositiveCoverage = 1
	cfg.MaxClauses = 6
	cfg.Subsumption.MaxNodes = 10000
	return cfg
}

// opResult is one learn followed by a held-out prediction.
type opResult struct {
	def              *dlearn.Definition
	report           *dlearn.Report
	learnS, learnCPU float64
	predictS         float64
	pred             []bool
}

// learnAndPredict runs one cold or warm Engine.Learn (warm when cfg carries
// a snapshot store) and classifies the held-out tuples with the learned
// model.
func learnAndPredict(ctx context.Context, cfg core.Config, lp *libProblem) (opResult, error) {
	var r opResult
	cpu0 := cpuSeconds()
	start := time.Now()
	def, report, err := dlearn.New(dlearn.WithConfig(cfg)).Learn(ctx, &lp.problem)
	r.learnS = time.Since(start).Seconds()
	r.learnCPU = cpuSeconds() - cpu0
	if err != nil {
		return r, err
	}
	r.def, r.report = def, report
	model := core.NewModel(def, lp.problem, core.NewLearner(cfg).Config())
	start = time.Now()
	r.pred, err = model.PredictAllContext(ctx, lp.test)
	r.predictS = time.Since(start).Seconds()
	return r, err
}

// record folds a successful op into the run's measurements.
func (m *e2e) record(r opResult, lp *libProblem) {
	m.learns = append(m.learns, r.learnS)
	m.learnCPU = append(m.learnCPU, r.learnCPU)
	m.predictTuples += len(lp.test)
	m.predictSecs += r.predictS
	m.jobs = append(m.jobs, r.learnS+r.predictS)
}

// The quality panel: f1 is the held-out F1 of the workload's configuration
// over the first problems generated from panelSeed, learned after the
// window. The panel is the same in every run, whatever -seed says, so f1
// moves only when the learner's answers do. Seeded problems would not do:
// the held-out F1 of one quick-size learn ranges from 0 to 1 across
// problems, and over the problems one run affords the spread of their mean
// across seeds exceeds any useful bound.
const panelSeed = 104729

// qualityPanel learns n panel problems under cfg and adds their held-out
// predictions to m's confusion counts.
func qualityPanel(ctx context.Context, e env, n int, cfg core.Config, gen func(seed int64, i int) (libProblem, error), m *e2e, out *outcome) error {
	if e.toy {
		n = 1
	}
	for i := 0; i < n; i++ {
		lp, err := gen(panelSeed, i)
		if err != nil {
			return err
		}
		r, err := learnAndPredict(ctx, cfg, &lp)
		if err != nil {
			return fmt.Errorf("quality panel problem %d: %w", i, err)
		}
		out.checkf(r.def.Len() >= 1, "quality panel problem %d yielded no clause", i)
		m.addPredictions(r.pred, lp.labels)
	}
	return nil
}

// invalidProblem is what a deliberately failing op submits: no positive
// examples, which Engine.Learn rejects.
var invalidProblem = libProblem{name: "invalid"}

// ---- imdb-cold ----

// imdbSize sizes imdb-cold: a pool of IMDB+OMDB problems (three MDs, CFD
// violation rate 0.1, 10x tuple scale) and the search settings.
type imdbSize struct {
	movies, scale        int
	positives, negatives int
	testFrac             float64
	pool                 int
	iterations, sample   int
}

func imdbSizeFor(e env) imdbSize {
	if e.toy {
		return imdbSize{movies: 30, scale: 2, positives: 10, negatives: 20, testFrac: 0.4, pool: 4, iterations: 2, sample: 2}
	}
	return imdbSize{movies: 100, scale: 10, positives: 28, negatives: 56, testFrac: 0.57, pool: 24, iterations: 3, sample: 3}
}

func imdbProblem(seed int64, i int, sz imdbSize) (libProblem, error) {
	cfg := datagen.DefaultMoviesConfig()
	cfg.Movies, cfg.Scale = sz.movies, sz.scale
	cfg.MDCount, cfg.ViolationRate = 3, 0.1
	cfg.Positives, cfg.Negatives = sz.positives, sz.negatives
	cfg.Seed = problemSeed(seed, i)
	ds, err := datagen.Movies(cfg)
	if err != nil {
		return libProblem{}, err
	}
	return split(ds, sz.testFrac, cfg.Seed)
}

func imdbConfig(e env, sz imdbSize) core.Config {
	return learnerConfig(e, sz.iterations, sz.sample, 1)
}

// generatePool builds problems 0..n-1 of the run.
func generatePool(n int, gen func(i int) (libProblem, error)) ([]libProblem, error) {
	pool := make([]libProblem, n)
	for i := range pool {
		p, err := gen(i)
		if err != nil {
			return nil, fmt.Errorf("generating problem %d: %w", i, err)
		}
		pool[i] = p
	}
	return pool, nil
}

// runIMDBCold: sequential cold learns, each over a different generated
// problem and without a snapshot store, each followed by a held-out
// prediction. Problem 0 is the untimed warm-up op and is learned again
// after the window to check that repeats are byte-identical.
func runIMDBCold(ctx context.Context, e env) (*outcome, error) {
	sz := imdbSizeFor(e)
	cfg := imdbConfig(e, sz)
	var pool []libProblem
	var m e2e
	var err error
	m.setupS, err = timeSetup(func() { pool = nil }, func() error {
		pool, err = generatePool(sz.pool, func(i int) (libProblem, error) { return imdbProblem(e.seed, i, sz) })
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	warm, err := learnAndPredict(ctx, cfg, &pool[0])
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}

	start := time.Now()
	for i := 0; time.Since(start).Seconds() < e.seconds; i++ {
		lp := &pool[1+i%(len(pool)-1)]
		if e.failEvery > 0 && i%e.failEvery == e.failEvery-1 {
			lp = &invalidProblem
		}
		m.attempted++
		r, err := learnAndPredict(ctx, cfg, lp)
		if err != nil {
			m.failed++
			continue
		}
		out.checkf(r.def.Len() >= 1, "learn of %s (problem %d) yielded no clause", lp.name, 1+i%(len(pool)-1))
		m.record(r, lp)
	}
	m.windowS = time.Since(start).Seconds()

	again, err := learnAndPredict(ctx, cfg, &pool[0])
	if err != nil {
		return nil, fmt.Errorf("repeat of the warm-up op: %w", err)
	}
	out.checkf(again.def.String() == warm.def.String(), "repeated learn of problem 0 gave a different definition")
	out.checkf(warm.def.Len() >= 1, "warm-up learn yielded no clause")
	gen := func(seed int64, i int) (libProblem, error) { return imdbProblem(seed, i, sz) }
	if err := qualityPanel(ctx, e, 4, cfg, gen, &m, out); err != nil {
		return nil, err
	}
	m.fill(out)
	return out, nil
}

// ---- dblp-warm ----

// dblpSize sizes dblp-warm: DBLP+Scholar problems whose snapshots are
// written during set-up, and the search settings.
type dblpSize struct {
	papers               int
	positives, negatives int
	testFrac             float64
	problems             int
	iterations, sample   int
	km                   int
}

func dblpSizeFor(e env) dblpSize {
	if e.toy {
		return dblpSize{papers: 30, positives: 10, negatives: 20, testFrac: 0.4, problems: 2, iterations: 2, sample: 2, km: 1}
	}
	return dblpSize{papers: 80, positives: 30, negatives: 60, testFrac: 0.4, problems: 24, iterations: 2, sample: 4, km: 1}
}

func dblpProblem(seed int64, i int, sz dblpSize) (libProblem, error) {
	cfg := datagen.DefaultCitationsConfig()
	cfg.Papers = sz.papers
	// No CFD violations: how many violating examples a problem draws
	// varies its warm learn time threefold, which would make the run-to-run
	// spread of learn_s wider than any useful bound.
	cfg.ViolationRate = 0
	cfg.Positives, cfg.Negatives = sz.positives, sz.negatives
	cfg.Seed = problemSeed(seed, i)
	ds, err := datagen.Citations(cfg)
	if err != nil {
		return libProblem{}, err
	}
	return split(ds, sz.testFrac, cfg.Seed)
}

// dblpConfig caps the definition at two clauses. How many covering
// iterations a problem takes to fill six varies threefold between problems,
// and with it the warm learn time; with two the run-to-run spread of the
// latencies stays inside the bounds.
func dblpConfig(e env, sz dblpSize) core.Config {
	cfg := learnerConfig(e, sz.iterations, sz.sample, sz.km)
	cfg.MaxClauses = 2
	return cfg
}

// dblpSettings are the covering-only settings dblp-warm steps through. None
// of them enters the snapshot key, so every step is served warm from the
// snapshot written during set-up.
func dblpSettings(base core.Config) []core.Config {
	steps := []func(*core.Config){
		func(*core.Config) {},
		func(c *core.Config) { c.GeneralizationSample = 6 },
		func(c *core.Config) { c.NegativeSearchSample, c.MaxClauses = 24, 3 },
		func(c *core.Config) { c.MinPositiveCoverage = 2 },
	}
	out := make([]core.Config, len(steps))
	for i, step := range steps {
		out[i] = base
		step(&out[i])
	}
	return out
}

// warmSnapshot writes the prepared examples of a problem into the store
// under the key Engine.Learn will look for, through the same layer calls
// the learner makes: ground every example, then LoadOrPrepareExamples.
func warmSnapshot(ctx context.Context, cfg core.Config, p core.Problem, store persist.Store) error {
	cfg = core.NewLearner(cfg).Config()
	b := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
	pos, err := groundAll(b, p.Pos)
	if err != nil {
		return err
	}
	neg, err := groundAll(b, p.Neg)
	if err != nil {
		return err
	}
	ev := coverage.NewEvaluator(evaluatorOptions(cfg))
	_, _, snap, err := ev.LoadOrPrepareExamples(ctx, store, core.SnapshotFingerprint(p, cfg).Key(), pos, neg)
	if err != nil {
		return err
	}
	if snap.WriteErr != nil {
		return fmt.Errorf("writing snapshot: %w", snap.WriteErr)
	}
	return nil
}

// evaluatorOptions mirrors the evaluator the learner builds for cfg.
func evaluatorOptions(cfg core.Config) coverage.Options {
	return coverage.Options{
		Subsumption:          cfg.Subsumption,
		Repair:               cfg.Repair,
		Threads:              cfg.Threads,
		CandidateParallelism: cfg.CandidateParallelism,
		CacheShards:          cfg.EvalCacheShards,
	}
}

func groundAll(b *bottomclause.Builder, ts []relation.Tuple) ([]dlearn.Clause, error) {
	out := make([]dlearn.Clause, len(ts))
	for i, t := range ts {
		g, err := b.GroundBottomClause(t)
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}

// dblpSetup generates the problems and writes their snapshots into a fresh
// store under dir.
func dblpSetup(ctx context.Context, e env, sz dblpSize, base core.Config, dir string) ([]libProblem, persist.Store, error) {
	pool, err := generatePool(sz.problems, func(i int) (libProblem, error) { return dblpProblem(e.seed, i, sz) })
	if err != nil {
		return nil, nil, err
	}
	store := persist.NewDirStore(dir)
	for i := range pool {
		if err := warmSnapshot(ctx, base, pool[i].problem, store); err != nil {
			return nil, nil, fmt.Errorf("snapshot of problem %d: %w", i, err)
		}
	}
	return pool, store, nil
}

// coldChecks is how many dblp-warm problems are learned cold after the
// window to check that the warm definition equals the cold one.
const coldChecks = 4

// runDBLPWarm: warm learns over DBLP+Scholar problems whose snapshots were
// written during set-up, stepping through covering-only settings. Op i
// learns problem i mod P under setting (i div P) mod S, so the op sequence
// repeats every P×S ops and repeats are checked byte-identical. After the
// window the first coldChecks problems are learned cold (no store) under
// the first setting, and each definition must equal the warm one.
func runDBLPWarm(ctx context.Context, e env) (*outcome, error) {
	sz := dblpSizeFor(e)
	base := dblpConfig(e, sz)
	var pool []libProblem
	var store persist.Store
	var m e2e
	rep := 0
	var err error
	m.setupS, err = timeSetup(func() { pool, store = nil, nil }, func() error {
		rep++
		pool, store, err = dblpSetup(ctx, e, sz, base, fmt.Sprintf("%s/snapshots-%d", e.workDir, rep))
		return err
	})
	if err != nil {
		return nil, err
	}
	settings := dblpSettings(base)
	for i := range settings {
		settings[i].SnapshotStore = store
	}
	out := &outcome{}
	defs := make(map[[2]int]string)
	check := func(pi, si int, r opResult) {
		out.checkf(r.report.SnapshotHit, "warm learn of problem %d under setting %d missed the snapshot", pi, si)
		out.checkf(r.def.Len() >= 1, "learn of problem %d under setting %d yielded no clause", pi, si)
		k := [2]int{pi, si}
		if prev, ok := defs[k]; ok {
			out.checkf(prev == r.def.String(), "repeated learn of problem %d under setting %d gave a different definition", pi, si)
		} else {
			defs[k] = r.def.String()
		}
	}
	warm, err := learnAndPredict(ctx, settings[0], &pool[0])
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	check(0, 0, warm)

	start := time.Now()
	for i := 0; time.Since(start).Seconds() < e.seconds; i++ {
		pi, si := i%len(pool), (i/len(pool))%len(settings)
		lp := &pool[pi]
		if e.failEvery > 0 && i%e.failEvery == e.failEvery-1 {
			lp = &invalidProblem
		}
		m.attempted++
		r, err := learnAndPredict(ctx, settings[si], lp)
		if err != nil {
			m.failed++
			continue
		}
		check(pi, si, r)
		m.record(r, lp)
	}
	m.windowS = time.Since(start).Seconds()

	for pi := 0; pi < coldChecks && pi < len(pool); pi++ {
		warmDef, ok := defs[[2]int{pi, 0}]
		if !ok {
			continue
		}
		cold, err := learnAndPredict(ctx, base, &pool[pi])
		if err != nil {
			return nil, fmt.Errorf("cold learn of problem %d: %w", pi, err)
		}
		out.checkf(cold.def.String() == warmDef, "warm definition of problem %d differs from the cold one", pi)
	}
	gen := func(seed int64, i int) (libProblem, error) { return dblpProblem(seed, i, sz) }
	if err := qualityPanel(ctx, e, 8, base, gen, &m, out); err != nil {
		return nil, err
	}
	m.fill(out)
	return out, nil
}
