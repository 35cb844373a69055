// Package testutil provides pipeline helpers shared by the test suites
// of the utilities that sit on top of the simulated machine: run a
// workload, convert its raw traces, and merge the interval files, all in
// memory. It is imported only from external test packages (package
// x_test), so it may depend on every pipeline stage without cycles.
package testutil

import (
	"bytes"
	"io"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/trace"
)

// Shape describes the simulated machine for a test run.
type Shape struct {
	Nodes        int
	TasksPerNode int
	CPUs         int
	Seed         uint64
	Drifts       []float64 // optional explicit drifts
	Quantum      int64     // optional scheduler quantum, ns
}

// RunWorkload executes main on every task of a fresh in-memory world and
// returns the per-node raw trace bytes.
func RunWorkload(t testing.TB, sh Shape, main func(*mpisim.Proc)) [][]byte {
	t.Helper()
	if sh.Seed == 0 {
		sh.Seed = 42
	}
	bufs := make([]*bytes.Buffer, sh.Nodes)
	ws := make([]io.Writer, sh.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       sh.Nodes,
			CPUsPerNode: sh.CPUs,
			TraceOpts:   trace.Options{Enabled: events.MaskAll},
			Drifts:      sh.Drifts,
			Seed:        sh.Seed,
		},
		TasksPerNode: sh.TasksPerNode,
	}
	if sh.Quantum > 0 {
		cfg.Cluster.Quantum = clock.Time(sh.Quantum)
	}
	w, err := mpisim.New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(main)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, sh.Nodes)
	for i := range bufs {
		raws[i] = bufs[i].Bytes()
	}
	return raws
}

// ConvertRun converts raw traces into interval files (in memory).
func ConvertRun(t testing.TB, raws [][]byte, wopts interval.WriterOptions) []*interval.File {
	t.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{Writer: wopts})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		f, err := interval.NewFile(sb)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	return files
}

// MergeRun merges interval files into one (in memory).
func MergeRun(t testing.TB, files []*interval.File, opts merge.Options) (*interval.File, *merge.Result) {
	t.Helper()
	sb := interval.NewSeekBuffer()
	res, err := merge.Merge(files, sb, opts)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	return mf, res
}

// Pipeline runs workload → convert → merge and returns the merged file.
func Pipeline(t testing.TB, sh Shape, mopts merge.Options, main func(*mpisim.Proc)) (*interval.File, *merge.Result) {
	t.Helper()
	raws := RunWorkload(t, sh, main)
	files := ConvertRun(t, raws, interval.WriterOptions{})
	return MergeRun(t, files, mopts)
}
