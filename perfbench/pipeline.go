package main

import (
	"bytes"
	"fmt"
	"io"

	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// storm simulates the paper's Table 1 workload (4 threads per task) on
// nodes SMP nodes of 4 CPUs and returns the per-node raw traces.
func (e *env) storm(parent uint64, nodes, tasks, iters int, seed uint64) ([][]byte, error) {
	return e.simulate(parent, cluster.Config{Nodes: nodes, CPUsPerNode: 4, Seed: seed}, tasks,
		workload.Storm{Iters: iters, Threads: 3}.Main())
}

// simulate runs main on the simulated machine with every event type
// traced and returns the per-node raw traces.
func (e *env) simulate(parent uint64, cc cluster.Config, tasks int, main func(*mpisim.Proc)) ([][]byte, error) {
	cc.TraceOpts = trace.Options{Enabled: events.MaskAll}
	bufs := make([]*bytes.Buffer, cc.Nodes)
	writers := make([]io.Writer, cc.Nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	err := e.call(parent, "mpisim.run", func(uint64) error {
		w, err := mpisim.New(mpisim.Config{Cluster: cc, TasksPerNode: tasks}, writers)
		if err != nil {
			return err
		}
		w.Start(main)
		_, err = w.Run()
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	raws := make([][]byte, cc.Nodes)
	for i, b := range bufs {
		raws[i] = b.Bytes()
	}
	if e.tracing() {
		for _, raw := range raws {
			n, err := rawEvents(raw)
			if err != nil {
				return nil, err
			}
			e.add("mpisim.events", float64(n))
			e.add("mpisim.bytes", float64(len(raw)))
		}
	}
	return raws, nil
}

// rawEvents counts the event records of one raw trace.
func rawEvents(raw []byte) (int64, error) {
	if len(raw) < trace.RawHeaderSize {
		return 0, fmt.Errorf("raw trace shorter than its header")
	}
	var n int64
	for off := trace.RawHeaderSize; off < len(raw); n++ {
		_, k, err := trace.Decode(raw[off:])
		if err != nil {
			return 0, err
		}
		off += k
	}
	return n, nil
}

// convertRaws converts per-node raw traces into interval files with a
// shared marker registry, as uteconvert does. It returns the files and
// the raw event count.
func (e *env) convertRaws(parent uint64, raws [][]byte, parallel int) ([]*interval.File, int64, error) {
	var outs []*interval.SeekBuffer
	var res []*convert.Result
	err := e.call(parent, "convert", func(uint64) (err error) {
		outs, res, err = convert.ConvertBuffers(raws, convert.Options{Markers: convert.NewMarkerRegistry(), Parallel: parallel})
		return err
	})
	if err != nil {
		return nil, 0, fmt.Errorf("convert: %w", err)
	}
	var evs int64
	for _, r := range res {
		evs += r.Events
	}
	e.add("convert.events", float64(evs))
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		if files[i], err = interval.NewFile(sb); err != nil {
			return nil, 0, fmt.Errorf("open converted file %d: %w", i, err)
		}
	}
	return files, evs, nil
}

// mergeFiles merges converted files into one in-memory interval file.
func (e *env) mergeFiles(parent uint64, files []*interval.File, evs int64, opts merge.Options) ([]byte, *merge.Result, error) {
	sb := interval.NewSeekBuffer()
	var res *merge.Result
	err := e.call(parent, "merge", func(uint64) (err error) {
		res, err = merge.Merge(files, sb, opts)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("merge: %w", err)
	}
	if e.tracing() {
		e.add("merge.events", float64(evs))
		e.add("merge.records", float64(res.Records))
		e.add("merge.pseudo", float64(res.Pseudo))
		e.add("merge.bytes", float64(sb.Len()))
		mf, err := interval.NewFile(interval.NewSeekBufferFrom(sb.Bytes()))
		if err != nil {
			return nil, nil, fmt.Errorf("reopen merged file: %w", err)
		}
		frames, err := mf.Frames()
		if err != nil {
			return nil, nil, fmt.Errorf("merged frames: %w", err)
		}
		e.add("merge.frames", float64(len(frames)))
	}
	return sb.Bytes(), res, nil
}

// openMerged opens in-memory interval bytes with payload checksum
// verification (the default).
func (e *env) openMerged(parent uint64, b []byte) (*interval.File, error) {
	var f *interval.File
	err := e.call(parent, "interval.open", func(uint64) (err error) {
		f, err = interval.NewFile(interval.NewSeekBufferFrom(b), interval.WithVerifyChecksums(true))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("open merged file: %w", err)
	}
	return f, nil
}
