package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/render"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
)

// batchBench is the paper's Table 1 post-mortem path over one storm
// trace generated during set-up: convert, merge with pyramid and SLOG,
// then the analysis a user waits for — open the merged file and compute
// the predefined statistics, the time-resolved tables and a preview.
type batchBench struct {
	e      *env
	raws   [][]byte
	events int64

	passes   []float64 // seconds per pass
	analyses []float64 // seconds per analysis: open, tables, preview
	records  int64
	digest   [32]byte // merged file of the first pass
}

func newBatch(e *env) bench { return &batchBench{e: e} }

func (b *batchBench) setup() error {
	sz := b.e.sz
	var err error
	if b.raws, err = b.e.storm(0, sz.batchNodes, sz.batchTasks, sz.batchIters, b.e.seed); err != nil {
		return err
	}
	for _, raw := range b.raws {
		n, err := rawEvents(raw)
		if err != nil {
			return err
		}
		b.events += n
	}
	return nil
}

func (b *batchBench) op(r *result, traced bool) error {
	root := b.e.tr.begin("bench.batch", 0)
	err := b.pass(root)
	b.e.tr.end(root)
	r.check("batch pass", err)
	return nil
}

// pass runs the timed path once and then checks its outputs.
func (b *batchBench) pass(root uint64) error {
	e := b.e
	sw := startWatch()
	files, evs, err := e.convertRaws(root, b.raws, 0)
	if err != nil {
		return err
	}
	merged, mres, err := e.mergeFiles(root, files, evs, merge.Options{})
	if err != nil {
		return err
	}
	built, err := interval.NewFile(interval.NewSeekBufferFrom(merged))
	if err != nil {
		return err
	}
	var pyr *interval.Pyramid
	err = e.call(root, "interval.pyramid", func(uint64) (err error) {
		pyr, err = interval.BuildPyramid(built, interval.PyramidOptions{})
		return err
	})
	if err != nil {
		return fmt.Errorf("build pyramid: %w", err)
	}
	sb := interval.NewSeekBuffer()
	var sres *slog.BuildResult
	err = e.call(root, "slog.build", func(uint64) (err error) {
		sres, err = slog.Build(built, sb, slog.Options{})
		return err
	})
	if err != nil {
		return fmt.Errorf("build slog: %w", err)
	}
	if e.corrupt {
		merged = append([]byte(nil), merged...)
		merged[len(merged)/2] ^= 0xff
	}

	asw := startWatch()
	mf, err := e.openMerged(root, merged)
	if err != nil {
		return err
	}
	mf.AttachPyramid(pyr)
	files1 := []*interval.File{mf}
	var tabs, tr []*stats.Table
	var prev *render.PreviewResult
	steps := []struct {
		name string
		fn   func() error
	}{
		{"stats.predefined", func() (err error) {
			tabs, err = stats.GenerateOpts(stats.Predefined(50), files1, stats.Options{})
			return err
		}},
		{"stats.timeresolved", func() (err error) {
			tr, err = stats.TimeResolved(files1, 50, stats.Options{})
			return err
		}},
		{"render.preview", func() (err error) {
			if prev, err = render.BuildPreview(mf, render.PreviewOptions{Bins: 50}); err == nil && render.PreviewSVG(prev.Preview) == "" {
				err = fmt.Errorf("empty preview")
			}
			return err
		}},
	}
	for _, s := range steps {
		if err := e.call(root, s.name, func(uint64) error { return s.fn() }); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	analysis, _ := asw.elapsed()
	elapsed, _ := sw.elapsed()
	e.tr.end(root)

	_, _, nrec, err := mf.Stats()
	if err != nil {
		return err
	}
	e.add("stats.records", 2*float64(nrec))
	e.add("interval.frames_decoded", float64(mf.DecodedFrames()))
	e.add("render.frames_decoded", float64(prev.FramesDecoded))
	e.add("slog.bytes", float64(sb.Len()))
	e.add("slog.records", float64(nrec))

	// Checks: counts agree from raw events to the SLOG, the pyramid
	// matches its frames, and every pass writes the same bytes.
	if evs != b.events {
		return fmt.Errorf("convert saw %d raw events, set-up generated %d", evs, b.events)
	}
	if nrec != mres.Records || sres.Records != mres.Records {
		return fmt.Errorf("merged records: merge %d, file %d, slog %d", mres.Records, nrec, sres.Records)
	}
	if len(tabs) == 0 || len(tr) != 3 {
		return fmt.Errorf("got %d predefined and %d time-resolved tables", len(tabs), len(tr))
	}
	if _, err := mf.VerifyPyramid(pyr, interval.VerifyPyramidOptions{}); err != nil {
		return err
	}
	d := sha256.Sum256(merged)
	if b.records == 0 {
		b.records, b.digest = mres.Records, d
	} else if !bytes.Equal(d[:], b.digest[:]) {
		return fmt.Errorf("merged file differs from the first pass")
	}
	b.passes = append(b.passes, elapsed)
	b.analyses = append(b.analyses, analysis)
	return nil
}

func (b *batchBench) report(r *result) {
	m := r.metrics
	m["events_per_s"] = div(float64(b.events), median(b.passes))
	m["records_per_event"] = div(float64(b.records), float64(b.events))
	m["query_qps"] = div(float64(len(b.analyses)), sum(b.analyses))
	m["query_p50_ms"] = 1e3 * median(b.analyses)
	m["query_p95_ms"] = 1e3 * quantile(b.analyses, 0.95)
}

func (b *batchBench) reset() { b.passes, b.analyses = nil, nil }

func (b *batchBench) close() {}
