package tracefw

// Benchmarks for the discrete-event simulator itself: the cluster-scale
// scenario sweeps run thousand-node machines, so the scheduler's event
// queue, ready queues, and listener fan-out are a hot loop in their own
// right. BenchmarkSchedHotLoop pins the per-event cost and allocation
// behavior across node counts (allocs per event must stay flat as the
// machine grows); BenchmarkSweepCell runs one full sweep cell —
// generate → convert → merge → stats — at a small size. Numbers are
// recorded in BENCH_sim.json.

import (
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/sched"
	"tracefw/internal/sweep"
	"tracefw/internal/workload"
)

// countingListener tallies scheduler events without retaining anything,
// standing in for the trace facility's listener fan-out.
type countingListener struct{ events int64 }

func (l *countingListener) OnDispatch(int, int32, int, clock.Time) { l.events++ }
func (l *countingListener) OnUndispatch(int, int32, int, sched.UndispatchReason, clock.Time) {
	l.events++
}
func (l *countingListener) OnThreadStart(int, int32, clock.Time) { l.events++ }

// runHotLoop drives one contended simulation: nodes × 4 CPUs with 8
// compute-bound threads per node, so every quantum expiry preempts and
// every dispatch decision sees a non-empty ready queue.
func runHotLoop(nodes, rounds int, l sched.Listener) {
	s := sched.New(sched.Config{
		Nodes:       nodes,
		CPUsPerNode: 4,
		Quantum:     clock.Millisecond,
	}, l)
	for n := 0; n < nodes; n++ {
		for t := 0; t < 8; t++ {
			t := t
			s.Spawn(n, func(th *sched.Thread) {
				for r := 0; r < rounds; r++ {
					th.Compute(clock.Time(1+t%3) * clock.Millisecond)
					th.Sleep(clock.Time(1+r%2) * clock.Millisecond)
				}
			})
		}
	}
	s.Run()
}

// BenchmarkSchedHotLoop measures the DES hot loop at growing node
// counts. The figure of merit is ns and allocs per scheduler event —
// both must stay flat as nodes grow, or thousand-node sweeps become
// quadratic in practice.
func BenchmarkSchedHotLoop(b *testing.B) {
	for _, nodes := range []int{4, 64, 512} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			rounds := 40
			b.ReportAllocs()
			b.ResetTimer()
			var events int64
			for i := 0; i < b.N; i++ {
				l := &countingListener{}
				runHotLoop(nodes, rounds, l)
				events += l.events
			}
			b.StopTimer()
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
				b.ReportMetric(float64(events)/float64(b.N), "events/op")
			}
		})
	}
}

// BenchmarkSweepCell runs one full sweep cell end to end: simulate,
// convert, merge, and reduce to the comparison-table metrics. This is
// the unit the utesweep driver fans out over a policy × workload grid.
// nodes=8 is a small cell; nodes=256 (4 CPUs, 4 tasks per node) has
// more open states than half a merge frame holds, so it exercises the
// frame-prologue floor that keeps merged records per raw event bounded.
func BenchmarkSweepCell(b *testing.B) {
	for _, bc := range []struct {
		nodes, cpus, tasks int
		iters              int64
	}{
		{nodes: 8, cpus: 2, tasks: 1, iters: 4},
		{nodes: 256, cpus: 4, tasks: 4, iters: 2},
	} {
		b.Run(fmt.Sprintf("nodes=%d", bc.nodes), func(b *testing.B) {
			grid := sweep.Grid{
				Policies:  []string{"fifo"},
				Scenarios: []sweep.Scenario{{Name: "imbalance", Params: workload.Params{"iters": bc.iters}}},
			}
			opts := sweep.Options{
				Nodes: bc.nodes, CPUsPerNode: bc.cpus, TasksPerNode: bc.tasks,
				Seed: 7, Parallel: 1,
			}
			b.ReportAllocs()
			var events, records int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(grid, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Cells) != 1 || res.Cells[0].RawEvents == 0 {
					b.Fatal("sweep cell produced no events")
				}
				events += res.Cells[0].RawEvents
				records += res.Cells[0].Records
			}
			b.StopTimer()
			if events > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/rawevent")
				b.ReportMetric(float64(records)/float64(events), "records/rawevent")
			}
		})
	}
}
