package interval

import (
	"context"
	"sync"

	"tracefw/internal/clock"
	"tracefw/internal/par"
)

// This file is the parallel per-frame map-reduce engine the analysis
// tools (utestats tables, SLOG construction, diagram building) share.
// Frames are the format's natural unit of parallelism: each one decodes
// independently, and the directory metadata names every frame up front.
// The engine decodes frames on a bounded worker pool (internal/par) and
// hands the mapped values to a single reducer in strict frame order, so
// a parallel run reduces in exactly the sequence a sequential scan
// would — the byte-identity guarantee every consumer builds on.

// MapOptions selects frames and sets the worker count for
// MapFilesBatches.
type MapOptions struct {
	// Parallel is the worker count; <= 0 means GOMAXPROCS. Frames are
	// decoded concurrently only when every file supports positioned
	// reads (ConcurrentReads); otherwise the engine falls back to one
	// worker.
	Parallel int
	// Window restricts the run to frames overlapping [Lo, Hi]. Records
	// inside a selected frame are all delivered, including any spilling
	// past the window edges — callers filter records exactly as they
	// would after a full scan, so results do not depend on frame
	// boundaries.
	Window bool
	Lo, Hi clock.Time
	// Context, when non-nil, aborts the run once it is cancelled: no
	// new frames are issued and the engine returns the context's error.
	// Cancellation is checked per frame, so a long run stops within one
	// frame's worth of work. Servers set it to the request context;
	// batch callers leave it nil (context.Background()).
	Context context.Context
}

// selectFrames lists the frames opts selects for one file.
func selectFrames(f *File, opts MapOptions) ([]FrameEntry, error) {
	if opts.Window {
		return f.FramesInWindow(opts.Lo, opts.Hi)
	}
	return f.Frames()
}

// batchPool recycles Batches across MapFilesBatches workers and
// DecodeFrameDirect calls; a recycled batch's columns keep their
// capacity, so steady-state columnar decode allocates nothing.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// MapFilesBatches runs mapFn over every selected frame of every file —
// all files' frames feed one worker pool, so small files do not idle
// workers — and calls reduceFn with the mapped values in (file, frame)
// order, the same order a sequential scan of the files one after
// another would produce. mapFn runs concurrently and must not touch
// shared state; reduceFn runs on one goroutine at a time in
// deterministic order and may keep state.
//
// mapFn receives each frame as a Batch filled straight from the frame
// encoding (or from the frame-decode hook's cached records when one is
// installed). Batches are pooled: the one passed to mapFn is valid only
// for the duration of the call. Anything the reduce step needs must be
// copied out in mapFn — Batch.Records for whole records.
//
// At most Workers(Parallel, frames) frames are in flight, so memory
// stays bounded no matter how large the files are. On error the engine
// stops issuing frames and returns the lowest-ordered failure; the
// reducer may have consumed an arbitrary prefix.
func MapFilesBatches[T any](files []*File, opts MapOptions, mapFn func(file int, fe FrameEntry, b *Batch) (T, error), reduceFn func(file int, fe FrameEntry, v T) error) error {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	type job struct {
		file int
		fe   FrameEntry
	}
	var jobs []job
	for fi, f := range files {
		if err := ctx.Err(); err != nil {
			return err
		}
		fes, err := selectFrames(f, opts)
		if err != nil {
			return err
		}
		for _, fe := range fes {
			jobs = append(jobs, job{fi, fe})
		}
	}
	p := par.Workers(opts.Parallel, len(jobs))
	if p > 1 {
		for _, f := range files {
			if !f.ConcurrentReads() {
				p = 1
				break
			}
		}
	}
	red := par.NewOrderedReducer()
	return par.Do(len(jobs), p, func(i int) error {
		if err := ctx.Err(); err != nil {
			red.Abort()
			return err
		}
		j := jobs[i]
		b := batchPool.Get().(*Batch)
		defer batchPool.Put(b)
		if err := files[j.file].DecodeFrameBatch(j.fe, b); err != nil {
			red.Abort()
			return err
		}
		v, err := mapFn(j.file, j.fe, b)
		if err != nil {
			red.Abort()
			return err
		}
		return red.Reduce(i, func() error { return reduceFn(j.file, j.fe, v) })
	})
}

// The ordered reduction itself lives in par.OrderedReducer — the shard
// router's scatter-gather merge shares it, so both layers agree on the
// frame-order reduce discipline.
