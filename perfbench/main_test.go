package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps every workload to well under a second per operation.
var tinySizes = sizes{
	setupReps:  2,
	batchNodes: 2, batchTasks: 2, batchIters: 40,
	scaleNodes: 8, scaleWarmNodes: 4,
	serveTraces: 2, serveNodes: 2, serveTasks: 2, serveIters: 80,
	serveCacheBytes: 1 << 20, serveSplitFrames: 2, serveRequests: 20,
	ingestNodes: 2, ingestTasks: 2, ingestIters: 150, ingestBatchBytes: 4 << 10,
}

var workloadNames = []string{"batch", "scale", "serve", "ingest"}

// smoke runs one workload at tiny size for at least one operation (two
// when traced).
func smoke(t *testing.T, wl string, seed uint64, traced, corrupt bool) *result {
	t.Helper()
	e := newEnv(seed, time.Millisecond, traced, t.TempDir(), tinySizes)
	e.corrupt = corrupt
	r, err := e.execute(workloads[wl])
	if err != nil {
		t.Fatalf("%s: %v", wl, err)
	}
	return r
}

// spec reads BENCHMARK.json from the repository root.
func spec(t *testing.T) (benchSpec, []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		benchSpec
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return s.benchSpec, names
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	s, names := spec(t)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames, ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, tc := range []struct {
		table []metricDef
		json  []specMetric
	}{{endToEnd, s.EndToEnd}, {perLayer, s.PerLayer}} {
		var got, want []string
		for _, d := range tc.table {
			want = append(want, d.name+" "+d.unit)
		}
		for _, m := range tc.json {
			got = append(got, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("BENCHMARK.json lists\n%v\nthe program reports\n%v", got, want)
		}
	}
}

// TestWorkloadsSmoke: every workload passes its checks and prints every
// metric BENCHMARK.json names with its unit; end-to-end metrics are
// never zero.
func TestWorkloadsSmoke(t *testing.T) {
	s, _ := spec(t)
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := smoke(t, wl, 7, traced, false)
			line := r.line(traced)
			if line["correct"] != true || r.failed != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl, traced, r.failed, r.attempted)
			}
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			got := line["metrics"].(map[string]metricValue)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl, traced, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", wl, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", wl, traced, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", wl, traced, m.Name, v.Value)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, m.Name, v.Value)
				}
			}
		}
	}
}

// TestExactCountsRepeat: the same seed gives the same exact counts.
func TestExactCountsRepeat(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			a, b := smoke(t, wl, 11, traced, false), smoke(t, wl, 11, traced, false)
			for name := range exactCounts {
				if _, ok := a.metrics[name]; !ok && !traced {
					continue
				}
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s traced=%v: %s = %v then %v under the same seed", wl, traced, name, a.metrics[name], b.metrics[name])
				}
			}
		}
	}
}

// TestCorruptOutputCounted: a planted corrupt output makes the error
// rate nonzero on every workload.
func TestCorruptOutputCounted(t *testing.T) {
	saved := stderr
	stderr = nopWriter{}
	defer func() { stderr = saved }()
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			r := smoke(t, wl, 3, traced, true)
			if r.errorRate() == 0 {
				t.Errorf("%s traced=%v: corrupt output not counted (%d of %d failed)", wl, traced, r.failed, r.attempted)
			}
			if r.line(traced)["correct"] != false {
				t.Errorf("%s traced=%v: corrupt run reported correct", wl, traced)
			}
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.1}
	for _, tc := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, []float64{10, 11, 10.5, 10.2}, []float64{8, 8.1, 8.3, 7.9}, "better"},
		{lower, []float64{10, 11, 10.5, 10.2}, []float64{12, 13, 12.5, 12.2}, "worse"},
		{lower, []float64{10, 10.1, 10.2, 10.3}, []float64{10.1, 10.2, 9.9, 10.4}, "same"},
		{lower, []float64{5, 10, 15, 20}, []float64{6, 9, 14, 21}, "unresolved"},
		{specMetric{Name: "records_per_event", Better: "lower", Bound: 0.1}, []float64{335, 335}, []float64{1, 1}, "better (count delta -334)"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); !strings.HasPrefix(got, tc.want) {
			t.Errorf("verdict(%v, %v) = %q, want %q…", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestStolenShare(t *testing.T) {
	a := parseCPUTicks("cpu  1000 5 200 9000 40 0 30 100 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if want := (cpuTicks{busy: 1235, steal: 100}); a != want {
		t.Fatalf("parsed %+v, want %+v", a, want)
	}
	b := cpuTicks{busy: a.busy + 200, steal: a.steal + 100}
	if got := stolenShare(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("stolen share %v, want 1/3", got)
	}
	if got := stolenShare(a, a); got != 0 {
		t.Errorf("stolen share of an empty interval %v, want 0", got)
	}
	if got := parseCPUTicks("intr 1 2 3\n"); got != (cpuTicks{}) {
		t.Errorf("a file without the cpu line parsed as %+v", got)
	}
}
