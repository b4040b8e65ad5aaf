package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyEnv(t *testing.T) env {
	return env{seed: defaultSeed, seconds: 1, workDir: t.TempDir(), threads: maxThreads(), toy: true, log: io.Discard}
}

// TestWorkloadsPrintEveryMetric runs every workload of BENCHMARK.json at toy
// size, untraced and traced, and checks that each prints exactly the
// metrics BENCHMARK.json names for that mode, finite and with its unit.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %s, which the benchmark does not have", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := execute(context.Background(), w, toyEnv(t), traced)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d", w.name, traced, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (traced %v): metric %s missing", w.name, traced, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s (traced %v): metric %s = %v", w.name, traced, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s (traced %v): metric %s has unit %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestFailuresCounted makes every second op of each workload fail and
// checks that the failures are counted, not hidden.
func TestFailuresCounted(t *testing.T) {
	for _, w := range workloads {
		e := toyEnv(t)
		e.failEvery = 2
		res, err := execute(context.Background(), w, e, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		rate := res.Metrics["success_rate"].Value
		if res.Failed < 1 || res.Failed > res.Attempted || rate >= 1 {
			t.Errorf("%s: attempted=%d failed=%d success_rate=%v, want failures counted", w.name, res.Attempted, res.Failed, rate)
		}
		if want := float64(res.Attempted-res.Failed) / float64(res.Attempted); rate != want {
			t.Errorf("%s: success_rate=%v, want %v", w.name, rate, want)
		}
	}
}

// TestTraceCountersRepeat runs the traced replay twice per library workload
// and checks that every work counter repeats exactly: the replay runs on one
// coverage worker, so no scheduling race can change the work done.
func TestTraceCountersRepeat(t *testing.T) {
	counters := []string{
		"bottomclause.literals", "repair.clauses", "repair.cap_hits", "persist.snapshot_bytes",
		"generalize.probes", "coverage.candidates", "coverage.early_exit_rate",
		"subsumption.probes", "subsumption.nodes", "subsumption.planned_frac", "core.batches",
	}
	for _, name := range []string{"imdb-cold", "dblp-warm"} {
		w, _ := findWorkload(name)
		var first map[string]metric
		for i := 0; i < 2; i++ {
			res, err := execute(context.Background(), w, toyEnv(t), true)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first == nil {
				first = res.Metrics
				continue
			}
			for _, c := range counters {
				if first[c].Value != res.Metrics[c].Value {
					t.Errorf("%s: counter %s was %v, then %v", name, c, first[c].Value, res.Metrics[c].Value)
				}
			}
		}
		if first["subsumption.probes"].Value == 0 || first["core.batches"].Value == 0 {
			t.Errorf("%s: the replay did no search work: %v", name, first)
		}
	}
}
