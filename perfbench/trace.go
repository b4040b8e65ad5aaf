package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dlearn"
	"dlearn/internal/bottomclause"
	"dlearn/internal/core"
	"dlearn/internal/coverage"
	"dlearn/internal/generalize"
	"dlearn/internal/logic"
	"dlearn/internal/observe"
	"dlearn/internal/persist"
	"dlearn/internal/repair"
	"dlearn/internal/subsumption"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans and work counters in memory. It is used from one
// goroutine: the replay calls every layer sequentially.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]float64)}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

func (t *tracer) add(counter string, v float64) { t.counts[counter] += v }

// total is the summed duration of the spans with the given name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// self returns each span name's self time in seconds: its spans' durations
// minus the time their child spans cover. Children of one span run one after
// another, so the covered time is the sum of their durations.
func (t *tracer) self() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// write saves the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printShares writes each span name's self time and its share of the
// traced time to w, largest first.
func (t *tracer) printShares(w io.Writer) {
	self := t.self()
	var total float64
	names := make([]string, 0, len(self))
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "layer self times (%.3fs traced):\n", total)
	for _, n := range names {
		fmt.Fprintf(w, "  %-24s %9.4fs %5.1f%%\n", n, self[n], 100*self[n]/total)
	}
}

// traceConfig is cfg with one coverage worker and one candidate at a time,
// so the replay's work counters are exact: with two workers the early-exit
// races change how many probes a batch issues from run to run.
func traceConfig(cfg core.Config) core.Config {
	cfg.Threads = 1
	cfg.CandidateParallelism = 1
	cfg.SnapshotStore = nil
	return core.NewLearner(cfg).Config()
}

// replay runs the learner's steps for one problem through the public
// functions of each layer, in the learner's order — ground, repair,
// prepare, encode/save/decode/load, then the covering loop of generalize,
// score and accept, then predict — recording a span around every call. It
// returns the learned definition, which must equal Engine.Learn's.
func replay(ctx context.Context, t *tracer, cfg core.Config, lp *libProblem, store persist.Store) (*logic.Definition, error) {
	p := lp.problem
	builder := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
	ground := func(b *bottomclause.Builder, ts []dlearn.Tuple) ([]logic.Clause, error) {
		out := make([]logic.Clause, len(ts))
		for i, tu := range ts {
			var err error
			t.do("bottomclause.ground", func() { out[i], err = b.GroundBottomClause(tu) })
			if err != nil {
				return nil, err
			}
			t.add("bottomclause.literals", float64(len(out[i].Body)))
		}
		return out, nil
	}
	posG, err := ground(builder, p.Pos)
	if err != nil {
		return nil, err
	}
	negG, err := ground(builder, p.Neg)
	if err != nil {
		return nil, err
	}

	// Repair expansion, as the evaluator expands each example: CFD groups
	// only, then every group.
	capN := cfg.Repair.MaxClauses
	if capN <= 0 {
		capN = repair.DefaultMaxClauses
	}
	cfdOpts := cfg.Repair
	cfdOpts.Origin = logic.OriginCFD
	for _, g := range append(append([]logic.Clause(nil), posG...), negG...) {
		for _, opts := range []repair.Options{cfdOpts, cfg.Repair} {
			var out []logic.Clause
			t.do("repair.expand", func() { out = repair.RepairedClausesContext(ctx, g, opts) })
			t.add("repair.clauses", float64(len(out)))
			if len(out) >= capN {
				t.add("repair.cap_hits", 1)
			}
		}
	}

	ev := coverage.NewEvaluator(evaluatorOptions(cfg))
	var posEx, negEx []*coverage.Example
	t.do("coverage.prepare", func() {
		if posEx, err = ev.NewExamples(ctx, posG); err == nil {
			negEx, err = ev.NewExamples(ctx, negG)
		}
	})
	if err != nil {
		return nil, err
	}

	// Persistence round trip; the covering loop then runs on the examples
	// served from the store, as a warm learn does.
	var data []byte
	t.do("persist.encode", func() { data = persist.EncodeExampleSet(coverage.SnapshotExamples(posEx, negEx)) })
	t.add("persist.snapshot_bytes", float64(len(data)))
	key := core.SnapshotFingerprint(p, cfg).Key()
	t.do("persist.save", func() { err = store.Save(key, data) })
	if err != nil {
		return nil, err
	}
	t.do("persist.decode", func() { _, err = persist.DecodeExampleSet(data) })
	if err != nil {
		return nil, err
	}
	ev = coverage.NewEvaluator(evaluatorOptions(cfg))
	var snap coverage.SnapshotOutcome
	t.do("persist.load", func() { posEx, negEx, snap, err = ev.LoadOrPrepareExamples(ctx, store, key, posG, negG) })
	if err != nil {
		return nil, err
	}
	if !snap.Hit {
		return nil, fmt.Errorf("replay: snapshot load missed: %s", snap.Reason)
	}

	def, err := cover(ctx, t, cfg, builder, ev, p, posG, posEx, negEx)
	if err != nil {
		return nil, err
	}

	// Prediction, as Model.PredictContext does it: ground the tuple with a
	// fresh builder, then test the definition's coverage.
	pb := bottomclause.NewBuilder(p.Instance, p.Target, p.MDs, p.CFDs, cfg.BottomClause)
	pev := coverage.NewEvaluator(coverage.Options{Subsumption: cfg.Subsumption, Repair: cfg.Repair, Threads: cfg.Threads})
	for _, tu := range lp.test {
		id := t.begin("core.predict")
		var g logic.Clause
		t.do("bottomclause.ground", func() { g, err = pb.GroundBottomClause(tu) })
		if err != nil {
			return nil, err
		}
		t.add("bottomclause.literals", float64(len(g.Body)))
		t.do("coverage.definition", func() { pev.DefinitionCoversContext(ctx, def, g) })
		t.end(id)
	}
	return def, ctx.Err()
}

// cover is the covering loop of core.Learner.LearnContext, step for step,
// with spans around generalization (and each of its coverage probes),
// candidate scoring and the acceptance test, and a direct
// CompiledCandidate.Probe pass over every scored batch.
func cover(ctx context.Context, t *tracer, cfg core.Config, builder *bottomclause.Builder, ev *coverage.Evaluator,
	p core.Problem, posG []logic.Clause, posEx, negEx []*coverage.Example) (*logic.Definition, error) {
	checker := subsumption.New(cfg.Subsumption)
	preps := make(map[*coverage.Example]*subsumption.Prepared)
	prepared := func(ex *coverage.Example) *subsumption.Prepared {
		if pr, ok := preps[ex]; ok {
			return pr
		}
		pr := checker.Prepare(ex.Ground)
		preps[ex] = pr
		return pr
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	def := &logic.Definition{Target: p.Target.Name}
	uncovered := coverage.FullBits(len(p.Pos))
	plans0 := ev.PlanSnapshot()
	for uncovered.Any() && def.Len() < cfg.MaxClauses {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seedIdx := uncovered.Next(0)
		current, err := builder.BottomClause(p.Pos[seedIdx])
		if err != nil {
			return nil, err
		}
		currentScore := coverage.Score{PositivesCovered: 1}
		searchNeg := negEx
		if cfg.NegativeSearchSample > 0 && len(searchNeg) > cfg.NegativeSearchSample {
			searchNeg = searchNeg[:cfg.NegativeSearchSample]
		}
		var pool []*coverage.Example
		for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
			pool = append(pool, posEx[i])
		}
		for {
			sample := sampleUncovered(rng, uncovered, seedIdx, cfg.GeneralizationSample)
			if len(sample) == 0 {
				break
			}
			var cands []logic.Clause
			for _, ei := range sample {
				ex := posEx[ei]
				gen := generalize.New(func(c, _ logic.Clause) bool {
					t.add("generalize.probes", 1)
					var ok bool
					t.do("generalize.probe", func() { ok = ev.CoversPositiveExample(ctx, c, ex) })
					return ok
				})
				var cand logic.Clause
				var ok bool
				t.do("generalize", func() { cand, ok = gen.Generalize(current, posG[ei]) })
				if ok {
					cands = append(cands, cand)
				}
			}
			t.add("coverage.candidates", float64(len(cands)))
			t.add("coverage.batches", 1)
			var results []coverage.CandidateResult
			t.do("coverage.score", func() {
				results = ev.ScoreCandidates(ctx, cands, pool, searchNeg, currentScore.Value(), 0)
			})
			for _, r := range results {
				if !r.Exact {
					t.add("coverage.early_exits", 1)
				}
			}
			for _, c := range cands {
				cc := subsumption.CompileCandidate(c)
				for _, ex := range append(append([]*coverage.Example(nil), pool...), searchNeg...) {
					pr := prepared(ex)
					var st subsumption.ProbeStats
					t.do("subsumption.probe", func() { _, _, st = cc.Probe(ctx, pr, subsumption.ProbeOptions{}) })
					t.add("subsumption.direct_probes", 1)
					if st.Exhausted {
						t.add("subsumption.exhausted", 1)
					}
				}
			}
			bestIdx, bestScore, improved := coverage.BestCandidate(results, currentScore.Value())
			if !improved {
				break
			}
			current, currentScore = cands[bestIdx], bestScore
		}

		var posBits *coverage.Bits
		var negCovered int
		t.do("coverage.accept", func() {
			posBits = ev.CoverageBits(ctx, current, posEx)
			negCovered = ev.CountNegativeExamples(ctx, current, negEx)
		})
		full := coverage.Score{PositivesCovered: posBits.Count(), NegativesCovered: negCovered}
		if full.PositivesCovered >= cfg.MinPositiveCoverage &&
			float64(full.NegativesCovered) <= cfg.MaxNegativeFraction*float64(full.PositivesCovered+full.NegativesCovered) {
			def.Add(current, logic.ClauseStats{
				PositivesCovered: full.PositivesCovered,
				NegativesCovered: full.NegativesCovered,
				Score:            full.PositivesCovered - full.NegativesCovered,
			})
			uncovered.AndNot(posBits)
		}
		uncovered.Clear(seedIdx)
	}
	plans := ev.PlanSnapshot()
	t.add("subsumption.probes", float64(plans.Probes-plans0.Probes))
	t.add("subsumption.nodes", float64(plans.Nodes-plans0.Nodes))
	t.add("subsumption.planned", float64(plans.Planned-plans0.Planned))
	return def, ctx.Err()
}

// sampleUncovered is the learner's seeded sample of uncovered positives:
// ascending pool without the seed, shuffled, first n, sorted.
func sampleUncovered(rng *rand.Rand, uncovered *coverage.Bits, seed, n int) []int {
	var pool []int
	for i := uncovered.Next(0); i >= 0; i = uncovered.Next(i + 1) {
		if i != seed {
			pool = append(pool, i)
		}
	}
	if len(pool) <= n {
		return pool
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	out := append([]int(nil), pool[:n]...)
	sort.Ints(out)
	return out
}

// stamp is an Observer event with the time it arrived.
type stamp struct {
	at time.Time
	ev observe.Event
}

// learnObserved runs Engine.Learn with an observer that timestamps every
// event, and alternately without one, three times each. It returns the
// last observed run's events and definition and the tracing overhead: the
// relative difference of the two median wall times.
func learnObserved(ctx context.Context, cfg core.Config, lp *libProblem) ([]stamp, *logic.Definition, float64, error) {
	var plainS, observedS []float64
	var stamps []stamp
	var def *logic.Definition
	for i := 0; i < 3; i++ {
		start := time.Now()
		plain, _, err := dlearn.New(dlearn.WithConfig(cfg)).Learn(ctx, &lp.problem)
		if err != nil {
			return nil, nil, 0, err
		}
		plainS = append(plainS, time.Since(start).Seconds())
		stamps = stamps[:0]
		obs := observe.Func(func(e observe.Event) { stamps = append(stamps, stamp{time.Now(), e}) })
		start = time.Now()
		def, _, err = dlearn.New(dlearn.WithConfig(cfg), dlearn.WithObserver(obs)).Learn(ctx, &lp.problem)
		if err != nil {
			return nil, nil, 0, err
		}
		observedS = append(observedS, time.Since(start).Seconds())
		if def.String() != plain.String() {
			return nil, nil, 0, fmt.Errorf("observed learn gave a different definition")
		}
	}
	return stamps, def, median(observedS)/median(plainS) - 1, nil
}

// coreTimes splits an observed run at its events: bottom-clause
// construction (the PhaseDone duration), hill-climbing (from each
// iteration's start to its last scored batch) and acceptance (from there to
// the clause decision), plus the number of scored batches.
func coreTimes(stamps []stamp) (bottom, climb, accept, batches float64) {
	var iterStart, lastBatch time.Time
	for _, s := range stamps {
		switch ev := s.ev.(type) {
		case observe.PhaseDone:
			if ev.Phase == observe.PhaseBottomClauses {
				bottom = ev.Duration.Seconds()
			}
		case observe.IterationStarted:
			iterStart, lastBatch = s.at, s.at
		case observe.CandidateBatchScored:
			lastBatch = s.at
			batches++
		case observe.ClauseAccepted, observe.ClauseRejected:
			climb += lastBatch.Sub(iterStart).Seconds()
			accept += s.at.Sub(lastBatch).Seconds()
		}
	}
	return bottom, climb, accept, batches
}

// perLayer names every per-layer metric with its unit, in BENCHMARK.json
// order.
var perLayer = []struct{ name, unit string }{
	{"bottomclause.ground_s", "s"}, {"bottomclause.literals", "count"},
	{"repair.expand_s", "s"}, {"repair.clauses", "count"}, {"repair.cap_hits", "count"},
	{"coverage.prepare_s", "s"},
	{"persist.encode_s", "s"}, {"persist.save_s", "s"}, {"persist.decode_s", "s"}, {"persist.load_s", "s"},
	{"persist.snapshot_bytes", "bytes"},
	{"generalize.s", "s"}, {"generalize.self_s", "s"}, {"generalize.probes", "count"},
	{"coverage.score_s", "s"}, {"coverage.candidates", "count"}, {"coverage.early_exit_rate", "ratio"},
	{"subsumption.probes", "count"}, {"subsumption.nodes", "count"}, {"subsumption.nodes_per_probe", "count"},
	{"subsumption.planned_frac", "ratio"}, {"subsumption.probe_us", "us"}, {"subsumption.exhausted_frac", "ratio"},
	{"coverage.accept_s", "s"},
	{"core.bottom_clauses_s", "s"}, {"core.hill_climb_s", "s"}, {"core.acceptance_s", "s"}, {"core.batches", "count"},
	{"core.predict_s", "s"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_s", "s"}, {"server.hit_job_ms", "ms"},
	{"server.result_cache_hit_rate", "ratio"}, {"server.snapshot_hit_rate", "ratio"},
	{"server.journal_write_failures", "count"}, {"server.sse_slow_drops", "count"},
	{"trace.overhead_frac", "ratio"},
}

// layerMetrics replays one problem, runs the observed learn and returns
// every per-layer metric but the server's, which the caller sets. The
// observed learn is cold, or with warm set served from the snapshot the
// replay saved, as the workload's ops are.
func layerMetrics(ctx context.Context, e env, cfg core.Config, lp *libProblem, warm bool, label string) (*outcome, error) {
	cfg = traceConfig(cfg)
	t := newTracer()
	store := persist.NewDirStore(filepath.Join(e.workDir, "trace-snapshots"))
	def, err := replay(ctx, t, cfg, lp, store)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if warm {
		cfg.SnapshotStore = store
	}
	stamps, learned, overhead, err := learnObserved(ctx, cfg, lp)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: 1}
	out.checkf(def.String() == learned.String(), "replayed definition differs from Engine.Learn")
	out.checkf(def.Len() >= 1, "replayed learn yielded no clause")

	path := filepath.Join(filepath.Dir(e.workDir), "traces", label+".jsonl")
	if err := t.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "spans written to %s\n", path)
	t.printShares(e.log)

	self := t.self()
	c := t.counts
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	bottom, climb, accept, batches := coreTimes(stamps)
	vals := map[string]float64{
		"bottomclause.ground_s":       t.total("bottomclause.ground"),
		"bottomclause.literals":       c["bottomclause.literals"],
		"repair.expand_s":             t.total("repair.expand"),
		"repair.clauses":              c["repair.clauses"],
		"repair.cap_hits":             c["repair.cap_hits"],
		"coverage.prepare_s":          t.total("coverage.prepare"),
		"persist.encode_s":            t.total("persist.encode"),
		"persist.save_s":              t.total("persist.save"),
		"persist.decode_s":            t.total("persist.decode"),
		"persist.load_s":              t.total("persist.load"),
		"persist.snapshot_bytes":      c["persist.snapshot_bytes"],
		"generalize.s":                t.total("generalize"),
		"generalize.self_s":           self["generalize"],
		"generalize.probes":           c["generalize.probes"],
		"coverage.score_s":            t.total("coverage.score"),
		"coverage.candidates":         c["coverage.candidates"],
		"coverage.early_exit_rate":    ratio(c["coverage.early_exits"], c["coverage.candidates"]),
		"subsumption.probes":          c["subsumption.probes"],
		"subsumption.nodes":           c["subsumption.nodes"],
		"subsumption.nodes_per_probe": ratio(c["subsumption.nodes"], c["subsumption.probes"]),
		"subsumption.planned_frac":    ratio(c["subsumption.planned"], c["subsumption.probes"]),
		"subsumption.probe_us":        1e6 * ratio(t.total("subsumption.probe"), c["subsumption.direct_probes"]),
		"subsumption.exhausted_frac":  ratio(c["subsumption.exhausted"], c["subsumption.direct_probes"]),
		"coverage.accept_s":           t.total("coverage.accept"),
		"core.bottom_clauses_s":       bottom,
		"core.hill_climb_s":           climb,
		"core.acceptance_s":           accept,
		"core.batches":                batches,
		"core.predict_s":              t.total("core.predict"),
		"trace.overhead_frac":         overhead,
	}
	for _, m := range perLayer {
		out.set(m.name, m.unit, vals[m.name])
	}
	fmt.Fprintf(e.log, "tracing overhead: the timestamped Engine.Learn took %+.1f%% more wall time than the untraced one\n", 100*overhead)
	return out, nil
}

func traceIMDBCold(ctx context.Context, e env) (*outcome, error) {
	sz := imdbSizeFor(e)
	lp, err := imdbProblem(e.seed, 0, sz)
	if err != nil {
		return nil, err
	}
	cfg := traceConfig(imdbConfig(e, sz))
	out, err := layerMetrics(ctx, e, cfg, &lp, false, fmt.Sprintf("imdb-cold-seed%d", e.seed))
	if err != nil {
		return nil, err
	}
	if err := serverLayer(ctx, e, cfg, &lp, out); err != nil {
		return nil, err
	}
	return out, nil
}

func traceDBLPWarm(ctx context.Context, e env) (*outcome, error) {
	sz := dblpSizeFor(e)
	lp, err := dblpProblem(e.seed, 0, sz)
	if err != nil {
		return nil, err
	}
	cfg := traceConfig(dblpConfig(e, sz))
	out, err := layerMetrics(ctx, e, cfg, &lp, true, fmt.Sprintf("dblp-warm-seed%d", e.seed))
	if err != nil {
		return nil, err
	}
	if err := serverLayer(ctx, e, cfg, &lp, out); err != nil {
		return nil, err
	}
	return out, nil
}
