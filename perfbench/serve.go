package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dlearn"
	"dlearn/internal/core"
	"dlearn/internal/datagen"
	"dlearn/internal/observe"
	"dlearn/internal/persist"
	"dlearn/internal/server"
	"dlearn/internal/server/wire"
)

// serveSize sizes serve-mix's small Walmart+Amazon problems.
type serveSize struct {
	products             int
	positives, negatives int
	testFrac             float64
	iterations, sample   int
}

func serveSizeFor(e env) serveSize {
	if e.toy {
		return serveSize{products: 30, positives: 8, negatives: 16, testFrac: 0.4, iterations: 2, sample: 2}
	}
	return serveSize{products: 100, positives: 20, negatives: 40, testFrac: 0.4, iterations: 3, sample: 3}
}

// lag is how many blocks back a hit or variant looks for the cold problem
// it reuses; the first lag blocks reuse the set-up's base problems
// 0..lag-1.
const lag = 2

func serveProblem(seed int64, i int, sz serveSize) (libProblem, error) {
	cfg := datagen.DefaultProductsConfig()
	cfg.Products = sz.products
	cfg.ViolationRate = 0.1
	cfg.Positives, cfg.Negatives = sz.positives, sz.negatives
	cfg.Seed = problemSeed(seed, i)
	ds, err := datagen.Products(cfg)
	if err != nil {
		return libProblem{}, err
	}
	return split(ds, sz.testFrac, cfg.Seed)
}

// serveConfig is the server's base engine configuration: one coverage
// thread per job, since the server runs e.threads jobs at once.
func serveConfig(e env, sz serveSize) core.Config {
	one := e
	one.threads = 1
	return learnerConfig(one, sz.iterations, sz.sample, 2)
}

// Job classes of the mix.
const (
	classHit     = iota // identical resubmission of an earlier job: result-cache hit
	classVariant        // an earlier problem under new covering options: snapshot hit
	classCold           // a problem never seen before: cold learn
	numClasses
)

// job is one submission of the mix.
type job struct {
	class int
	// problem indexes the run's problems: 0..lag-1 are the base problems,
	// lag+b is the cold problem of block b.
	problem int
	opts    wire.Options
}

// jobAt returns job k of the seeded sequence. Jobs come in blocks of three,
// one of each class in a seeded order, so the classes stay in equal thirds
// at every point of the run and the median and p90 latencies each fall
// inside one class. Block b's cold job learns a new problem; its hit
// resubmits, and its variant relearns under new covering-only options, the
// cold problem of block b-lag. Every problem is reused once of each kind, so
// the hit and variant latencies average over as many problems as the cold
// ones.
func jobAt(seed int64, k int) job {
	block := k / 3
	rng := rand.New(rand.NewSource(problemSeed(seed, block)))
	j := job{class: rng.Perm(numClasses)[k%3]}
	switch j.class {
	case classHit:
		// Problem b is the cold problem of block b-lag, or for b < lag a
		// base problem.
		j.problem = block
	case classVariant:
		// None of these options enters the snapshot key, so the variant is
		// a new result on a warm snapshot. The negative sample is never the
		// base configuration's 16, so no variant repeats the cold job.
		j.problem = block
		j.opts = wire.Options{
			GeneralizationSample: 3 + block%4,
			NegativeSearchSample: []int{8, 12, 20, 24}[(block/4)%4],
			MaxClauses:           4 + (block/16)%4,
		}
	case classCold:
		j.problem = lag + block
	}
	return j
}

// serveRun is one booted service with its inputs.
type serveRun struct {
	e      env
	gen    func(i int) (libProblem, error)
	cfg    core.Config
	srv    *server.Server
	http   *http.Server
	client *server.Client

	mu       sync.Mutex
	problems map[int]*libProblem
	// done[i] is closed once problem i's base-options job has finished, so
	// a hit or variant reusing it never races the job that fills the caches.
	done map[int]chan struct{}
}

// doneChan returns the channel closed when problem i's first job finishes.
func (r *serveRun) doneChan(i int) chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch, ok := r.done[i]
	if !ok {
		ch = make(chan struct{})
		r.done[i] = ch
	}
	return ch
}

// problem returns run problem i, generating it on first use.
func (r *serveRun) problem(i int) (*libProblem, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.problems[i]; ok {
		return p, nil
	}
	p, err := r.gen(i)
	if err != nil {
		return nil, err
	}
	r.problems[i] = &p
	return &p, nil
}

// bootServe starts dlearn-serve in process behind a loopback listener, with
// a job journal and a shared snapshot store under dir and cfg as the base
// engine configuration, and completes the jobs of problems 0..base-1. In
// serve-mix these base jobs are the run's untimed warm-up, and the first
// blocks reuse them.
func bootServe(ctx context.Context, e env, cfg core.Config, gen func(i int) (libProblem, error), base int, dir string) (*serveRun, error) {
	srv, err := server.New(server.Config{
		MaxConcurrent: e.threads,
		JobDir:        filepath.Join(dir, "jobs"),
		Store:         persist.NewDirStore(filepath.Join(dir, "snapshots")),
		EngineOptions: []dlearn.Option{dlearn.WithConfig(cfg)},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx)
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	r := &serveRun{
		e: e, gen: gen, cfg: cfg, srv: srv, http: hs,
		client: &server.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.threads}},
		},
		problems: make(map[int]*libProblem),
		done:     make(map[int]chan struct{}),
	}
	for b := 0; b < base; b++ {
		if _, err := r.submit(ctx, job{class: classCold, problem: b}, false); err != nil {
			r.close()
			return nil, fmt.Errorf("base job %d: %w", b, err)
		}
		close(r.doneChan(b))
	}
	return r, nil
}

// close stops the listener, drains the server and waits for both.
func (r *serveRun) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.http.Shutdown(ctx)
	_ = r.srv.Shutdown(ctx)
	r.client.HTTPClient.CloseIdleConnections()
}

// served is the outcome of one submitted job.
type served struct {
	job      job
	latencyS float64
	res      wire.Result
	// Which stores served the job, from its event stream.
	cacheHit, snapHit, snapMiss bool
	// Traced runs only: the Submit call's duration and the server-side
	// wait between admission and start.
	submitS, queueWaitS float64
}

// submit runs one job and times it from submission to result. Untraced it
// goes through Client.Learn; traced it makes the same calls Client.Learn
// makes — Submit, then Stream — timestamping the submission, and reads the
// server's queue wait from the job status afterwards.
func (r *serveRun) submit(ctx context.Context, j job, traced bool) (served, error) {
	lp, err := r.problem(j.problem)
	if err != nil {
		return served{}, err
	}
	s := served{job: j}
	note := func(ev dlearn.Event) {
		switch ev.(type) {
		case observe.ResultCacheHit:
			s.cacheHit = true
		case observe.SnapshotHit:
			s.snapHit = true
		case observe.SnapshotMiss:
			s.snapMiss = true
		}
	}
	start := time.Now()
	if !traced {
		s.res, err = r.client.Learn(ctx, &lp.problem, j.opts, note)
		s.latencyS = time.Since(start).Seconds()
		return s, err
	}
	wp := wire.EncodeProblem(&lp.problem)
	wp.Options = j.opts
	acc, err := r.client.Submit(ctx, wp)
	s.submitS = time.Since(start).Seconds()
	if err != nil {
		return s, err
	}
	terminal := errors.New("event stream ended without a result")
	err = r.client.Stream(ctx, acc.ID, func(ev server.SSEEvent) error {
		switch ev.Name {
		case wire.EventResult:
			terminal = json.Unmarshal(ev.Data, &s.res)
		case wire.EventError:
			terminal = fmt.Errorf("job %s failed: %s", acc.ID, ev.Data)
		default:
			if oe, err := observe.UnmarshalEvent(ev.Data); err == nil {
				note(oe)
			}
		}
		return nil
	})
	s.latencyS = time.Since(start).Seconds()
	if err == nil {
		err = terminal
	}
	if err != nil {
		return s, err
	}
	st, err := r.client.Status(ctx, acc.ID)
	if err != nil {
		return s, err
	}
	s.queueWaitS = st.StartedAt.Sub(st.SubmittedAt).Seconds()
	return s, nil
}

// mix runs e.threads closed-loop callers over the seeded job sequence for
// the window. It returns the completed jobs, the number of attempted and
// failed submissions, and the window's length.
func (r *serveRun) mix(ctx context.Context, traced bool) (jobs []served, attempted, failed int, windowS float64) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.e.threads; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < r.e.seconds {
				k := int(next.Add(1) - 1)
				j := jobAt(r.e.seed, k)
				if r.e.failEvery > 0 && k%r.e.failEvery == r.e.failEvery-1 && j.class == classHit {
					// An option value the server refuses at admission. Only
					// hits fail, as no later job depends on them.
					j.opts.MDMode = "invalid"
				}
				var s served
				var err error
				if j.class == classCold {
					// The problem is generated before its clock starts.
					if _, err = r.problem(j.problem); err == nil {
						s, err = r.submit(ctx, j, traced)
					}
					close(r.doneChan(j.problem))
				} else {
					select {
					case <-r.doneChan(j.problem):
						s, err = r.submit(ctx, j, traced)
					case <-ctx.Done():
						err = ctx.Err()
					}
				}
				mu.Lock()
				attempted++
				if err != nil {
					failed++
				} else {
					jobs = append(jobs, s)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, attempted, failed, time.Since(start).Seconds()
}

// checkClasses checks that every job was served the way its class says:
// hits from the result cache, variants from a warm snapshot, cold jobs by a
// fresh preparation; and that every result has at least one clause.
func checkClasses(jobs []served, out *outcome) {
	for _, s := range jobs {
		out.checkf(len(s.res.Clauses) >= 1, "job on problem %d yielded no clause", s.job.problem)
		switch s.job.class {
		case classHit:
			out.checkf(s.cacheHit, "resubmitted job on problem %d missed the result cache", s.job.problem)
		case classVariant:
			out.checkf(!s.cacheHit && s.snapHit, "variant job on problem %d was not served from a warm snapshot", s.job.problem)
		case classCold:
			out.checkf(!s.cacheHit && s.snapMiss, "cold job on problem %d did not prepare fresh", s.job.problem)
		}
	}
}

// jobKey identifies a distinct job: one problem under one set of options.
type jobKey struct {
	problem int
	opts    wire.Options
}

// verify learns every distinct job of the run in process with
// Engine.Learn, outside the timed window, and checks that the served
// definition is byte-identical. The models of the cold problems also give
// the prediction throughput of the served definitions. Jobs under the
// base options run first, so their snapshots are in a local store before the
// variants of the same problems run warm from it.
func (r *serveRun) verify(ctx context.Context, jobs []served, out *outcome, m *e2e) error {
	defs := make(map[jobKey]string)
	var base, variants []jobKey
	for _, s := range jobs {
		k := jobKey{s.job.problem, s.job.opts}
		if prev, ok := defs[k]; ok {
			out.checkf(prev == s.res.Definition, "two results of problem %d under the same options differ", k.problem)
			continue
		}
		defs[k] = s.res.Definition
		if (k.opts == wire.Options{}) {
			base = append(base, k)
		} else {
			variants = append(variants, k)
		}
	}
	for _, k := range variants {
		if _, ok := defs[jobKey{problem: k.problem}]; !ok {
			base = append(base, jobKey{problem: k.problem})
		}
	}
	store := persist.NewDirStore(filepath.Join(r.e.workDir, "verify-snapshots"))
	var mu sync.Mutex
	learn := func(k jobKey) error {
		lp, err := r.problem(k.problem)
		if err != nil {
			return err
		}
		opts, err := k.opts.EngineOptions()
		if err != nil {
			return err
		}
		opts = append([]dlearn.Option{dlearn.WithConfig(r.cfg), dlearn.WithSnapshotStore(store)}, opts...)
		cfg := dlearn.New(opts...).Config()
		var res opResult
		if k.problem >= lag && (k.opts == wire.Options{}) {
			res, err = learnAndPredict(ctx, cfg, lp)
		} else {
			res.def, _, err = dlearn.New(dlearn.WithConfig(cfg)).Learn(ctx, &lp.problem)
		}
		if err != nil {
			return fmt.Errorf("in-process learn of problem %d: %w", k.problem, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if want, ok := defs[k]; ok {
			out.checkf(res.def.String() == want, "served definition of problem %d under %+v differs from Engine.Learn", k.problem, k.opts)
		}
		m.predictTuples += len(res.pred)
		m.predictSecs += res.predictS
		return nil
	}
	if err := parallel(r.e.threads, base, learn); err != nil {
		return err
	}
	return parallel(r.e.threads, variants, learn)
}

// parallel calls fn on every item with n workers and returns the first
// error.
func parallel[T any](n int, items []T, fn func(T) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) || errs[w] != nil {
					return
				}
				errs[w] = fn(items[i])
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupServe boots the service setupReps times, each into a fresh
// directory, and keeps the last one running.
func setupServe(ctx context.Context, e env, sz serveSize) (*serveRun, float64, error) {
	var run *serveRun
	rep := 0
	release := func() {
		if run != nil {
			run.close()
			run = nil
		}
	}
	setupS, err := timeSetup(release, func() error {
		rep++
		var err error
		gen := func(i int) (libProblem, error) { return serveProblem(e.seed, i, sz) }
		run, err = bootServe(ctx, e, serveConfig(e, sz), gen, lag, filepath.Join(e.workDir, fmt.Sprintf("serve-%d", rep)))
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return run, setupS, nil
}

// runServeMix: two closed-loop callers submit Walmart+Amazon jobs to an
// in-process dlearn-serve in a seeded order that interleaves result-cache
// hits, option variants on warm snapshots and cold problems in equal
// thirds.
func runServeMix(ctx context.Context, e env) (*outcome, error) {
	sz := serveSizeFor(e)
	run, setupS, err := setupServe(ctx, e, sz)
	if err != nil {
		return nil, err
	}
	defer run.close()
	m := e2e{setupS: setupS}
	cpu0 := cpuSeconds()
	jobs, attempted, failed, windowS := run.mix(ctx, false)
	cpu := cpuSeconds() - cpu0
	m.attempted, m.failed, m.windowS = attempted, failed, windowS

	executed := 0
	for _, s := range jobs {
		m.jobs = append(m.jobs, s.latencyS)
		if s.job.class == classCold {
			m.learns = append(m.learns, s.res.Report.DurationSeconds)
		}
		if !s.cacheHit {
			executed++
		}
	}
	if executed > 0 {
		m.learnCPU = []float64{cpu / float64(executed)}
	}
	out := &outcome{}
	checkClasses(jobs, out)
	stats, err := run.client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	out.checkf(stats.JournalWriteFailures == 0 && stats.DegradedJobs == 0,
		"server degraded: %d journal write failures, %d degraded jobs", stats.JournalWriteFailures, stats.DegradedJobs)
	if err := run.verify(ctx, jobs, out, &m); err != nil {
		return nil, err
	}
	gen := func(seed int64, i int) (libProblem, error) { return serveProblem(seed, i, sz) }
	if err := qualityPanel(ctx, e, 8, run.cfg, gen, &m, out); err != nil {
		return nil, err
	}
	m.fill(out)
	return out, nil
}

// traceServeMix runs the mix with every job timestamped through
// Client.Submit and Client.Stream, reads the server's counters from
// Client.Stats, and replays base problem 0 through the library layers.
func traceServeMix(ctx context.Context, e env) (*outcome, error) {
	sz := serveSizeFor(e)
	run, _, err := setupServe(ctx, e, sz)
	if err != nil {
		return nil, err
	}
	defer run.close()
	jobs, attempted, failed, _ := run.mix(ctx, true)
	stats, err := run.client.Stats(ctx)
	if err != nil {
		return nil, err
	}
	lp, err := run.problem(0)
	if err != nil {
		return nil, err
	}
	out, err := layerMetrics(ctx, e, run.cfg, lp, true, fmt.Sprintf("serve-mix-seed%d", e.seed))
	if err != nil {
		return nil, err
	}
	checkClasses(jobs, out)
	serverMetrics(out, jobs, stats)
	out.attempted += attempted
	out.failed += failed
	return out, nil
}

// serverMetrics sets the server's per-layer metrics from traced jobs and
// the server's counters.
func serverMetrics(out *outcome, jobs []served, stats wire.Stats) {
	var submitMS, waitS, hitMS []float64
	for _, s := range jobs {
		submitMS = append(submitMS, 1000*s.submitS)
		waitS = append(waitS, s.queueWaitS)
		if s.job.class == classHit {
			hitMS = append(hitMS, 1000*s.latencyS)
		}
	}
	out.set("server.submit_ms", "ms", median(submitMS))
	out.set("server.queue_wait_s", "s", median(waitS))
	out.set("server.hit_job_ms", "ms", median(hitMS))
	hitRate := 0.0
	if stats.Submitted > 0 {
		hitRate = float64(stats.ResultCacheHits) / float64(stats.Submitted)
	}
	out.set("server.result_cache_hit_rate", "ratio", hitRate)
	out.set("server.snapshot_hit_rate", "ratio", stats.SnapshotHitRate)
	out.set("server.journal_write_failures", "count", float64(stats.JournalWriteFailures))
	out.set("server.sse_slow_drops", "count", float64(stats.SSESlowDrops))
}

// serverLayer measures the server layer on a library workload's traced
// problem: an in-process dlearn-serve learns it once cold and then serves
// the identical resubmission from its result cache, both timestamped
// through Client.Submit and Client.Stream.
func serverLayer(ctx context.Context, e env, cfg core.Config, lp *libProblem, out *outcome) error {
	gen := func(int) (libProblem, error) { return *lp, nil }
	run, err := bootServe(ctx, e, cfg, gen, 0, filepath.Join(e.workDir, "trace-serve"))
	if err != nil {
		return err
	}
	defer run.close()
	var jobs []served
	for _, class := range []int{classCold, classHit} {
		s, err := run.submit(ctx, job{class: class}, true)
		if err != nil {
			return err
		}
		jobs = append(jobs, s)
	}
	checkClasses(jobs, out)
	stats, err := run.client.Stats(ctx)
	if err != nil {
		return err
	}
	serverMetrics(out, jobs, stats)
	out.attempted += len(jobs)
	return nil
}
