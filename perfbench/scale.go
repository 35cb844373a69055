package main

import (
	"fmt"
	"math"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/sched"
	"tracefw/internal/stats"
	"tracefw/internal/sweep"
	"tracefw/internal/workload"
)

// scaleBench times one scenario-sweep cell, fifo × imbalance(iters=2),
// from simulation to tables. At 256 nodes the merge's frame prologues
// dominate its output, which is the defect this workload exists to show;
// keep its shape. A traced operation rebuilds the cell from the layer
// calls sweep.Run makes and checks that it writes as many records.
type scaleBench struct {
	e     *env
	grid  sweep.Grid
	cells []float64 // seconds per cell

	events, records int64 // of the first cell
}

func newScale(e *env) bench {
	return &scaleBench{e: e, grid: sweep.Grid{
		Policies:  []string{"fifo"},
		Scenarios: []sweep.Scenario{{Name: "imbalance", Params: workload.Params{"iters": 2}}},
	}}
}

func (b *scaleBench) options(nodes int) sweep.Options {
	return sweep.Options{Nodes: nodes, CPUsPerNode: 4, TasksPerNode: 4, Seed: b.e.seed, Parallel: 1}
}

// setup validates the grid and warms the pipeline with a small cell.
func (b *scaleBench) setup() error {
	_, err := sweep.Run(b.grid, b.options(b.e.sz.scaleWarmNodes))
	return err
}

func (b *scaleBench) op(r *result, traced bool) error {
	if traced {
		root := b.e.tr.begin("bench.scale", 0)
		err := b.rebuild(root)
		b.e.tr.end(root)
		r.check("scale rebuild", err)
		return nil
	}
	sw := startWatch()
	res, err := sweep.Run(b.grid, b.options(b.e.sz.scaleNodes))
	d, _ := sw.elapsed()
	if err == nil {
		err = b.checkCell(res.Cells[0])
	}
	if err == nil {
		b.cells = append(b.cells, d)
	}
	r.check("scale cell", err)
	return nil
}

// checkCell checks a cell's tables for consistency and its counts
// against the first cell's: the same seed must give the same cell.
func (b *scaleBench) checkCell(c sweep.Cell) error {
	if b.e.corrupt {
		c.TotalBusy++
	}
	var busy float64
	for _, tb := range c.BusyByType {
		busy += tb.Busy
	}
	if math.Abs(busy-c.TotalBusy) > 1e-9*math.Max(1, c.TotalBusy) {
		return fmt.Errorf("busy by type sums to %v, total busy is %v", busy, c.TotalBusy)
	}
	if c.MeanBusy <= 0 || math.Abs(c.Imbalance-c.MaxBusy/c.MeanBusy) > 1e-9*c.Imbalance {
		return fmt.Errorf("imbalance %v, max/mean busy %v/%v", c.Imbalance, c.MaxBusy, c.MeanBusy)
	}
	return b.checkCounts(c.RawEvents, c.Records)
}

// checkCounts compares raw event and merged record counts with the
// first cell's.
func (b *scaleBench) checkCounts(events, records int64) error {
	if events <= 0 || records <= 0 {
		return fmt.Errorf("empty cell: %d raw events, %d records", events, records)
	}
	if b.records == 0 {
		b.events, b.records = events, records
		return nil
	}
	if events != b.events || records != b.records {
		return fmt.Errorf("%d raw events and %d records, first cell %d and %d", events, records, b.events, b.records)
	}
	return nil
}

// rebuild repeats the cell through the layer calls sweep.Run makes.
func (b *scaleBench) rebuild(root uint64) error {
	e := b.e
	pol, err := sched.ParsePolicy(b.grid.Policies[0])
	if err != nil {
		return err
	}
	sc := b.grid.Scenarios[0]
	main, err := workload.Build(sc.Name, sc.Params)
	if err != nil {
		return err
	}
	raws, err := e.simulate(root, cluster.Config{
		Nodes: e.sz.scaleNodes, CPUsPerNode: 4, Policy: pol, Seed: e.seed,
		ClockInterval: 10 * clock.Millisecond,
	}, 4, main)
	if err != nil {
		return err
	}
	files, evs, err := e.convertRaws(root, raws, 1)
	if err != nil {
		return err
	}
	raws = nil
	merged, mres, err := e.mergeFiles(root, files, evs, merge.Options{Parallel: 1})
	if err != nil {
		return err
	}
	mf, err := e.openMerged(root, merged)
	if err != nil {
		return err
	}
	err = e.call(root, "stats.timeresolved", func(uint64) error {
		_, err := stats.TimeResolved([]*interval.File{mf}, 1, stats.Options{Parallel: 1})
		return err
	})
	if err != nil {
		return fmt.Errorf("time-resolved tables: %w", err)
	}
	e.add("stats.records", float64(mres.Records))
	e.add("interval.frames_decoded", float64(mf.DecodedFrames()))
	if b.records == 0 {
		return fmt.Errorf("no sweep.Run cell to compare the rebuild with")
	}
	if e.corrupt {
		mres.Records++
	}
	return b.checkCounts(evs, mres.Records)
}

func (b *scaleBench) report(r *result) {
	m := r.metrics
	m["events_per_s"] = div(float64(b.events), median(b.cells))
	m["records_per_event"] = div(float64(b.records), float64(b.events))
	m["query_qps"] = div(float64(len(b.cells)), sum(b.cells))
	m["query_p50_ms"] = 1e3 * median(b.cells)
	m["query_p95_ms"] = 1e3 * quantile(b.cells, 0.95)
}

func (b *scaleBench) reset() { b.cells = nil }

func (b *scaleBench) close() {}
