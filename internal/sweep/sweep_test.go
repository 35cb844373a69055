package sweep

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"tracefw/internal/cluster"
	"tracefw/internal/mpisim"
	"tracefw/internal/sched"
	"tracefw/internal/workload"
)

func testGrid() Grid {
	return Grid{
		Policies: []string{"fifo", "bestfit", "oversub"},
		Scenarios: []Scenario{
			{Name: "imbalance", Params: workload.Params{"iters": 3}},
			{Name: "stragglers", Params: workload.Params{"iters": 3}},
			{Name: "bursty", Params: workload.Params{"iters": 2}},
		},
	}
}

func testOpts(parallel int) Options {
	return Options{Nodes: 4, CPUsPerNode: 2, TasksPerNode: 1, Seed: 11, Parallel: parallel}
}

// TestSweepDeterministicAcrossParallelism is the sweep half of the
// determinism property: the TSV and JSON tables must be byte-identical
// across reruns and across every -j, in the spirit of the pipeline's
// parallel/sequential byte-identity suites.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	var wantTSV, wantJSON []byte
	for _, p := range []int{1, 2, 4, 0} {
		res, err := Run(testGrid(), testOpts(p))
		if err != nil {
			t.Fatalf("parallel=%d: %v", p, err)
		}
		tsv := res.TSV()
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if wantTSV == nil {
			wantTSV, wantJSON = tsv, js
			continue
		}
		if !bytes.Equal(tsv, wantTSV) {
			t.Fatalf("parallel=%d: TSV differs from parallel=1", p)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Fatalf("parallel=%d: JSON differs from parallel=1", p)
		}
	}
}

// TestRawTraceDeterministicPerPolicy is the generation half: the same
// seed and scenario must produce byte-identical raw trace files under
// every policy, run-to-run.
func TestRawTraceDeterministicPerPolicy(t *testing.T) {
	gen := func(polName string) [][]byte {
		pol, err := sched.ParsePolicy(polName)
		if err != nil {
			t.Fatal(err)
		}
		main, err := workload.Build("stragglers", workload.Params{"iters": 3})
		if err != nil {
			t.Fatal(err)
		}
		const nodes = 3
		bufs := make([]*bytes.Buffer, nodes)
		ws := make([]io.Writer, nodes)
		for i := range bufs {
			bufs[i] = &bytes.Buffer{}
			ws[i] = bufs[i]
		}
		w, err := mpisim.New(mpisim.Config{
			Cluster:      cluster.Config{Nodes: nodes, CPUsPerNode: 2, Policy: pol, Seed: 5},
			TasksPerNode: 2,
		}, ws)
		if err != nil {
			t.Fatal(err)
		}
		w.Start(main)
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, nodes)
		for i, b := range bufs {
			out[i] = b.Bytes()
		}
		return out
	}
	for _, pol := range []string{"fifo", "bestfit", "worstfit", "oversub", "oversub:4"} {
		a, b := gen(pol), gen(pol)
		for n := range a {
			if !bytes.Equal(a[n], b[n]) {
				t.Fatalf("policy %s: node %d raw trace not reproducible", pol, n)
			}
		}
	}
}

// TestSweepCellMetrics sanity-checks the metric extraction on a single
// cell: a run must report events, records, busy time, and a plausible
// peak concurrency.
func TestSweepCellMetrics(t *testing.T) {
	res, err := Run(Grid{
		Policies:  []string{"fifo"},
		Scenarios: []Scenario{{Name: "imbalance", Params: workload.Params{"iters": 4}}},
	}, testOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	if c.RawEvents == 0 || c.Records == 0 {
		t.Fatalf("empty cell: %+v", c)
	}
	if c.TotalBusy <= 0 || c.MeanBusy <= 0 || c.MaxBusy < c.MeanBusy {
		t.Fatalf("busy metrics implausible: %+v", c)
	}
	if c.Imbalance <= 1 {
		t.Fatalf("imbalance workload reported imbalance %v", c.Imbalance)
	}
	if c.PeakConcurrency < 1 || c.PeakConcurrency > int64(res.Options.Nodes*res.Options.CPUsPerNode) {
		t.Fatalf("peak concurrency %d out of range", c.PeakConcurrency)
	}
	if c.VirtualEnd <= 0 {
		t.Fatalf("virtual end %v", c.VirtualEnd)
	}
	if len(c.BusyByType) == 0 {
		t.Fatal("no busy-by-type rows")
	}
	if c.WallSeconds <= 0 {
		t.Fatal("wall clock not measured")
	}
}

// TestSweepPoliciesDiffer ensures the sweep actually discriminates:
// oversub must change the schedule metrics of a contended scenario
// relative to fifo.
func TestSweepPoliciesDiffer(t *testing.T) {
	res, err := Run(Grid{
		Policies:  []string{"fifo", "oversub:4"},
		Scenarios: []Scenario{{Name: "bursty", Params: workload.Params{"iters": 3}}},
	}, Options{Nodes: 2, CPUsPerNode: 1, TasksPerNode: 2, Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	fifo, over := res.Cells[0], res.Cells[1]
	if fifo.VirtualEnd == over.VirtualEnd && fifo.PeakConcurrency == over.PeakConcurrency {
		t.Fatalf("fifo and oversub:4 indistinguishable: end %v peak %d", fifo.VirtualEnd, fifo.PeakConcurrency)
	}
}

func TestSweepValidation(t *testing.T) {
	opts := testOpts(1)
	cases := []struct {
		g    Grid
		want string
	}{
		{Grid{}, "at least one"},
		{Grid{Policies: []string{"nope"}, Scenarios: []Scenario{{Name: "ring"}}}, "unknown policy"},
		{Grid{Policies: []string{"fifo"}, Scenarios: []Scenario{{Name: "nope"}}}, "unknown workload"},
		{Grid{Policies: []string{"fifo"}, Scenarios: []Scenario{{Name: "ring", Params: workload.Params{"iters": -1}}}}, "outside"},
	}
	for _, c := range cases {
		_, err := Run(c.g, opts)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Run(%+v): err %v, want substring %q", c.g, err, c.want)
		}
	}
	if _, err := Run(testGrid(), Options{}); err == nil {
		t.Error("zero options accepted")
	}
}

// TestSweepRecordsLinearInEvents pins the merge's output size on wide
// clusters: with 4 tasks on each of hundreds of nodes, more states are
// open at any instant than fit in half a frame, and frame-start
// pseudo-intervals must not multiply the record count by the open-set
// size. Merged records per raw event stay bounded as nodes grow.
func TestSweepRecordsLinearInEvents(t *testing.T) {
	grid := Grid{
		Policies:  []string{"fifo"},
		Scenarios: []Scenario{{Name: "imbalance", Params: workload.Params{"iters": 2}}},
	}
	for _, nodes := range []int{64, 128, 256} {
		res, err := Run(grid, Options{Nodes: nodes, CPUsPerNode: 4, TasksPerNode: 4, Seed: 1, Parallel: 1})
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		c := res.Cells[0]
		perEvent := float64(c.Records) / float64(c.RawEvents)
		t.Logf("nodes=%d: %d raw events, %d merged records, %.2f records/event", nodes, c.RawEvents, c.Records, perEvent)
		if perEvent > 2.5 {
			t.Errorf("nodes=%d: %.2f merged records per raw event, want <= 2.5", nodes, perEvent)
		}
	}
}
