package main

import (
	"math"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of values by linear interpolation between
// order statistics; values need not be sorted.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupReps is how many times a workload repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

// timeSetup builds the workload's state setupReps times and returns the
// median duration in seconds. Before each repetition release drops the
// previous one's state (outside the timer) and its memory goes back to the
// OS, so peak RSS measures one set-up and the run; the state of the last
// repetition is what the run uses.
func timeSetup(release func(), build func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		release()
		debug.FreeOSMemory()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	return median(ds), nil
}

// e2e accumulates the end-to-end measurements of a run. Every workload
// reports the same metric set (see BENCHMARK.json), so they share one
// definition of each.
type e2e struct {
	setupS float64
	// learns are Engine.Learn wall times and learnCPU the process CPU
	// seconds each learn used.
	learns, learnCPU []float64
	// predictTuples over predictSecs is the Model.PredictAll throughput.
	predictTuples int
	predictSecs   float64
	// Held-out confusion counts of the quality panel (see qualityPanel).
	tp, fp, fn int
	// jobs are the latencies of completed jobs (a learn plus its prediction
	// for the library workloads, submit-to-result for the service) and
	// windowS the length of the measured window they completed in.
	jobs    []float64
	windowS float64

	attempted, failed int
}

func (m *e2e) addPredictions(pred, labels []bool) {
	for i, p := range pred {
		switch {
		case p && labels[i]:
			m.tp++
		case p && !labels[i]:
			m.fp++
		case !p && labels[i]:
			m.fn++
		}
	}
}

// fill writes the end-to-end metrics into the outcome.
func (m *e2e) fill(o *outcome) {
	o.attempted, o.failed = m.attempted, m.failed
	o.set("setup_s", "s", m.setupS)
	o.set("learn_s", "s", median(m.learns))
	o.set("learn_cpu_s", "s", median(m.learnCPU))
	tput := 0.0
	if m.predictSecs > 0 {
		tput = float64(m.predictTuples) / m.predictSecs
	}
	o.set("predict_tuples_per_s", "1/s", tput)
	f1 := 0.0
	if d := 2*m.tp + m.fp + m.fn; d > 0 {
		f1 = float64(2*m.tp) / float64(d)
	}
	o.set("f1", "ratio", f1)
	o.set("job_p50_s", "s", median(m.jobs))
	o.set("job_p90_s", "s", quantile(m.jobs, 0.9))
	perMin := 0.0
	if m.windowS > 0 {
		perMin = float64(len(m.jobs)) / m.windowS * 60
	}
	o.set("jobs_per_min", "1/min", perMin)
	o.set("peak_rss_mb", "MiB", peakRSSMB())
	success := 0.0
	if m.attempted > 0 {
		success = float64(m.attempted-m.failed) / float64(m.attempted)
	}
	o.set("success_rate", "ratio", success)
}
