package tracefw

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design decisions DESIGN.md calls out. The
// full-size Table 1 sweep (up to 11.2M raw events) lives in
// cmd/experiments; the benchmarks here use sizes that keep `go test
// -bench=.` snappy while preserving the comparisons.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/render"
	"tracefw/internal/sched"
	"tracefw/internal/slog"
	"tracefw/internal/stats"
	"tracefw/internal/trace"
	"tracefw/internal/tracesvc"
	"tracefw/internal/workload"
)

// --- shared generators -------------------------------------------------

// stormRaws produces raw traces in the paper's Table 1 configuration:
// 4 MPI tasks (2 nodes × 2), 4 threads each.
func stormRaws(b *testing.B, iters int) [][]byte {
	return stormRawsN(b, 2, iters)
}

// stormRawsN generates the storm workload over a configurable node
// count (for the parallel convert/merge benchmarks).
func stormRawsN(b *testing.B, nodes, iters int) [][]byte {
	b.Helper()
	bufs := make([]*bytes.Buffer, nodes)
	writers := make([]io.Writer, nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	w, err := mpisim.New(mpisim.Config{
		Cluster: cluster.Config{
			Nodes: nodes, CPUsPerNode: 4, Seed: 99,
			TraceOpts: trace.Options{Enabled: events.MaskAll},
		},
		TasksPerNode: 2,
	}, writers)
	if err != nil {
		b.Fatal(err)
	}
	w.Start(workload.Storm{Iters: iters, Threads: 3}.Main())
	if _, err := w.Run(); err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, nodes)
	for i, buf := range bufs {
		raws[i] = buf.Bytes()
	}
	return raws
}

func rawEventCount(b *testing.B, raws [][]byte) int64 {
	b.Helper()
	var n int64
	for _, raw := range raws {
		rd, err := trace.NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := rd.Next(); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
	}
	return n
}

func convertedFiles(b *testing.B, raws [][]byte) []*interval.File {
	b.Helper()
	outs, _, err := convert.ConvertBuffers(raws, convert.Options{})
	if err != nil {
		b.Fatal(err)
	}
	files := make([]*interval.File, len(outs))
	for i, sb := range outs {
		if files[i], err = interval.NewFile(sb); err != nil {
			b.Fatal(err)
		}
	}
	return files
}

// --- Table 1: utility speed -------------------------------------------

func benchConvertPerEvent(b *testing.B, iters int) {
	raws := stormRaws(b, iters)
	nev := rawEventCount(b, raws)
	runtime.GC() // drop the generator's garbage; measure the utility
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Parallel: 1 keeps this the sequential per-event cost of Table 1;
		// BenchmarkConvertParallel measures the worker-pool speedup.
		if _, _, err := convert.ConvertBuffers(raws, convert.Options{Parallel: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nev), "ns/event")
}

func BenchmarkConvertPerEventSmall(b *testing.B)  { benchConvertPerEvent(b, 1000) }
func BenchmarkConvertPerEventMedium(b *testing.B) { benchConvertPerEvent(b, 4000) }
func BenchmarkConvertPerEventLarge(b *testing.B)  { benchConvertPerEvent(b, 16000) }

func benchSlogmergePerEvent(b *testing.B, iters int) {
	raws := stormRaws(b, iters)
	nev := rawEventCount(b, raws)
	runtime.GC() // drop the generator's garbage; measure the utility
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		files := convertedFiles(b, raws)
		runtime.GC()
		b.StartTimer()
		dst := interval.NewSeekBuffer()
		if _, _, err := slog.Slogmerge(files, dst, merge.Options{}, slog.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nev), "ns/event")
}

func BenchmarkSlogmergePerEventSmall(b *testing.B)  { benchSlogmergePerEvent(b, 1000) }
func BenchmarkSlogmergePerEventMedium(b *testing.B) { benchSlogmergePerEvent(b, 4000) }
func BenchmarkSlogmergePerEventLarge(b *testing.B)  { benchSlogmergePerEvent(b, 16000) }

// --- §2.1: cost of cutting a trace record -------------------------------

func BenchmarkCutTraceRecord(b *testing.B) {
	f, err := trace.NewFacility(trace.Options{Enabled: events.MaskAll, BufferSize: 1 << 22}, 0, 1, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	rec := &trace.Record{Type: events.EvMPISend, Edge: events.Entry, TID: 1, Args: []uint64{1, 2, 3, 4, 5, 6}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Time = clock.Time(i)
		f.Cut(rec)
	}
}

// --- Figure 1: clock discrepancy series ---------------------------------

func BenchmarkFig1ClockDiscrepancy(b *testing.B) {
	drifts := []float64{0, 2.5e-5, -3.5e-5, 6e-5}
	for i := 0; i < b.N; i++ {
		s := clock.Figure1(drifts, 0, 140*clock.Second, clock.Second, 1)
		if s.MaxDivergence() == 0 {
			b.Fatal("no divergence")
		}
	}
}

// --- §2.2: ratio estimators ---------------------------------------------

func BenchmarkClockRatioEstimators(b *testing.B) {
	c := clock.NewLocal(clock.Second, 8e-5, 500, clock.Microsecond, 3)
	var pairs []clock.Pair
	for i := 0; i <= 140; i++ {
		pairs = append(pairs, clock.SamplePair(c, clock.Time(i)*clock.Second, 0))
	}
	b.Run("rms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.RMSRatio(pairs)
		}
	})
	b.Run("lastpair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.LastPairRatio(pairs)
		}
	})
	b.Run("piecewise-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.NewPiecewiseAdjuster(pairs)
		}
	})
	b.Run("filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clock.FilterOutliers(pairs, 1e-3)
		}
	})
}

// --- Figures 6-9 --------------------------------------------------------

func flashRunB(b *testing.B) *core.Run {
	b.Helper()
	run, err := core.Execute(core.Config{
		Nodes: 4, CPUsPerNode: 4, TasksPerNode: 1, Seed: 11,
		Convert: interval.WriterOptions{FrameBytes: 16 << 10},
		Slog:    slog.Options{FrameBytes: 16 << 10},
	}, workload.Flash{Iters: 20, RefineEach: 5}.Main())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func sppmRunB(b *testing.B) *core.Run {
	b.Helper()
	run, err := core.Execute(core.Config{
		Nodes: 4, CPUsPerNode: 8, TasksPerNode: 1, Seed: 12,
		Affinity: sched.AffinityLowestFree,
	}, workload.SPPM{Iters: 8, ThreadsPerTask: 4}.Main())
	if err != nil {
		b.Fatal(err)
	}
	return run
}

func BenchmarkFig6StatsTable(b *testing.B) {
	run := flashRunB(b)
	defer run.Close()
	prog := stats.Predefined(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := stats.Generate(prog, []*interval.File{run.Merged})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables[0].Rows) == 0 {
			b.Fatal("empty Figure 6 table")
		}
	}
}

func BenchmarkFig7PreviewAndFrameFetch(b *testing.B) {
	run := flashRunB(b)
	defer run.Close()
	sf := run.Slog
	mid := (sf.TStart + sf.TEnd) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if svg := render.PreviewSVG(sf.Preview); len(svg) == 0 {
			b.Fatal("empty preview")
		}
		fi, ok := sf.FrameAt(mid)
		if !ok {
			b.Fatal("no frame")
		}
		if _, err := sf.ReadFrame(fi); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8ThreadActivityView(b *testing.B) {
	run := sppmRunB(b)
	defer run.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := run.View(render.ThreadActivity, render.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.SVG()) == 0 {
			b.Fatal("empty svg")
		}
	}
}

func BenchmarkFig9ProcessorActivityView(b *testing.B) {
	run := sppmRunB(b)
	defer run.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := run.View(render.ProcessorActivity, render.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.SVG()) == 0 {
			b.Fatal("empty svg")
		}
	}
}

// --- §4: frame-fetch scalability ----------------------------------------

func BenchmarkFrameFetchScalability(b *testing.B) {
	for _, iters := range []int{5, 20, 80} {
		run, err := core.Execute(core.Config{
			Nodes: 4, CPUsPerNode: 4, TasksPerNode: 1, Seed: 11,
			Convert: interval.WriterOptions{FrameBytes: 16 << 10},
			Slog:    slog.Options{FrameBytes: 16 << 10},
		}, workload.Flash{Iters: iters, RefineEach: 5}.Main())
		if err != nil {
			b.Fatal(err)
		}
		sf := run.Slog
		mid := (sf.TStart + sf.TEnd) / 2
		b.Run(sizeName(iters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fi, ok := sf.FrameAt(mid)
				if !ok {
					b.Fatal("no frame")
				}
				if _, err := sf.ReadFrame(fi); err != nil {
					b.Fatal(err)
				}
			}
		})
		run.Close()
	}
}

func sizeName(iters int) string {
	switch iters {
	case 5:
		return "small"
	case 20:
		return "medium"
	default:
		return "large"
	}
}

// --- ablations -----------------------------------------------------------

// BenchmarkMergeLoserTreeVsLinear compares the paper's balanced-tree
// k-way merge against a naive linear minimum scan, with many inputs so
// the O(log k) vs O(k) difference shows.
func BenchmarkMergeLoserTreeVsLinear(b *testing.B) {
	const nodes = 16
	bufs := make([]*bytes.Buffer, nodes)
	writers := make([]io.Writer, nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		writers[i] = bufs[i]
	}
	w, err := mpisim.New(mpisim.Config{
		Cluster: cluster.Config{
			Nodes: nodes, CPUsPerNode: 2, Seed: 5,
			TraceOpts: trace.Options{Enabled: events.MaskAll},
		},
		TasksPerNode: 1,
	}, writers)
	if err != nil {
		b.Fatal(err)
	}
	w.Start(workload.Storm{Iters: 400, Threads: 1}.Main())
	if _, err := w.Run(); err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, nodes)
	for i, buf := range bufs {
		raws[i] = buf.Bytes()
	}
	for _, variant := range []struct {
		name   string
		linear bool
	}{{"losertree", false}, {"linear", true}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := convertedFiles(b, raws)
				b.StartTimer()
				sb := interval.NewSeekBuffer()
				if _, err := merge.Merge(files, sb, merge.Options{Linear: variant.linear}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSeekFrameDirsVsScan compares locating a late time point via
// the frame directories against scanning all records — the reason the
// format has frames and directories at all.
func BenchmarkSeekFrameDirsVsScan(b *testing.B) {
	raws := stormRaws(b, 8000)
	files := convertedFiles(b, raws)
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, sb, merge.Options{Writer: interval.WriterOptions{FrameBytes: 16 << 10}}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	_, last, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	target := last - clock.Millisecond
	b.Run("framedirs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fe, ok, err := mf.FrameContaining(target)
			if err != nil || !ok {
				b.Fatalf("ok=%v err=%v", ok, err)
			}
			if _, err := mf.DecodeFrameDirect(fe); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sc := mf.Scan()
			found := false
			for {
				r, err := sc.NextRecord()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				if r.End() >= target {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("target not found")
			}
		}
	})
}

// BenchmarkMergePseudoIntervals measures the cost of the paper's §3.3
// pseudo-interval planting.
func BenchmarkMergePseudoIntervals(b *testing.B) {
	raws := stormRaws(b, 4000)
	for _, variant := range []struct {
		name     string
		noPseudo bool
	}{{"with-pseudo", false}, {"no-pseudo", true}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := convertedFiles(b, raws)
				b.StartTimer()
				sb := interval.NewSeekBuffer()
				opts := merge.Options{
					Writer:   interval.WriterOptions{FrameBytes: 8 << 10},
					NoPseudo: variant.noPseudo,
				}
				if _, err := merge.Merge(files, sb, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimatorAdjustment measures timestamp adjustment throughput
// per estimator (every record passes through Adjuster.Global twice).
func BenchmarkEstimatorAdjustment(b *testing.B) {
	raws := stormRaws(b, 4000)
	for _, est := range []merge.Estimator{merge.EstimatorRMS, merge.EstimatorPiecewise, merge.EstimatorNone} {
		b.Run(est.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := convertedFiles(b, raws)
				b.StartTimer()
				sb := interval.NewSeekBuffer()
				if _, err := merge.Merge(files, sb, merge.Options{Estimator: est}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndTimeOrderingAblation quantifies the paper's end-time
// ordering design decision (§3.1): because every input interval file is
// already sorted by end time, the merge is a streaming k-way pass. The
// ablation pretends the inputs were unordered and performs the naive
// alternative — load everything, sort globally, rewrite — which costs
// O(n log n) comparisons and peak memory proportional to the whole trace
// instead of one record per input.
func BenchmarkEndTimeOrderingAblation(b *testing.B) {
	raws := stormRaws(b, 8000)
	b.Run("streaming-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			files := convertedFiles(b, raws)
			b.StartTimer()
			sb := interval.NewSeekBuffer()
			if _, err := merge.Merge(files, sb, merge.Options{NoPseudo: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("global-sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			files := convertedFiles(b, raws)
			b.StartTimer()
			// Naive alternative: slurp every record, sort by end time,
			// write one output file.
			var all []interval.Record
			for fi, f := range files {
				pairs, err := merge.ExtractPairs(f)
				if err != nil {
					b.Fatal(err)
				}
				adj := clock.NewRatioAdjuster(pairs)
				recs, err := f.Scan().All()
				if err != nil {
					b.Fatal(err)
				}
				_ = fi
				for _, r := range recs {
					if r.Type == events.EvGlobalClock {
						continue
					}
					end := adj.Global(r.End())
					r.Start = adj.Global(r.Start)
					r.Dura = end - r.Start
					all = append(all, r)
				}
			}
			sort.SliceStable(all, func(x, y int) bool { return all[x].End() < all[y].End() })
			sb := interval.NewSeekBuffer()
			w, err := interval.NewWriter(sb, interval.Header{
				ProfileVersion: files[0].Header.ProfileVersion,
				Markers:        map[uint64]string{},
			}, interval.WriterOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for j := range all {
				if err := w.Add(&all[j]); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConvertParallel measures the worker-pool convert over a
// 4-node run at widths 1, 2, and 4. The outputs are byte-identical at
// every width; on a multi-core host the wider variants approach a
// speedup of min(width, GOMAXPROCS), while on a single-CPU host all
// variants degenerate to the sequential cost.
func BenchmarkConvertParallel(b *testing.B) {
	raws := stormRawsN(b, 4, 2000)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j%d", width), func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := convert.ConvertBuffers(raws, convert.Options{Parallel: width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMergeReadAhead compares the synchronous merge against the
// read-ahead pipeline over a 4-node run. The read-ahead variant moves
// frame decode off the merge goroutine; its benefit requires spare
// cores.
func BenchmarkMergeReadAhead(b *testing.B) {
	raws := stormRawsN(b, 4, 2000)
	for _, variant := range []struct {
		name  string
		width int
	}{{"sync", 1}, {"readahead", 4}} {
		b.Run(variant.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				files := convertedFiles(b, raws)
				runtime.GC()
				b.StartTimer()
				sb := interval.NewSeekBuffer()
				if _, err := merge.Merge(files, sb, merge.Options{Parallel: variant.width}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIntervalWriterThroughput measures raw record encode+frame
// throughput of the interval writer (records/op reported via ns/record).
func BenchmarkIntervalWriterThroughput(b *testing.B) {
	rec := interval.Record{
		Type:   events.EvMPISend,
		Bebits: profile.Complete,
		Dura:   1000,
		Extra:  []uint64{1, 2, 3, 4, 5, 6},
	}
	hdr := interval.Header{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}}
	b.ReportAllocs()
	b.ResetTimer()
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rec.Start = clock.Time(i)
		if err := w.Add(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkIntervalScanThroughput measures sequential record decode
// throughput through the Scanner.
func BenchmarkIntervalScanThroughput(b *testing.B) {
	sb := interval.NewSeekBuffer()
	hdr := interval.Header{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}}
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	rec := interval.Record{Type: events.EvMPISend, Bebits: profile.Complete, Dura: 10, Extra: []uint64{1, 2, 3, 4, 5, 6}}
	for i := 0; i < n; i++ {
		rec.Start = clock.Time(i)
		if err := w.Add(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := f.Scan()
		count := 0
		for {
			_, err := sc.NextRecord()
			if err != nil {
				break
			}
			count++
		}
		if count != n {
			b.Fatalf("scanned %d records", count)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
}

// BenchmarkIntervalScanInto measures the allocation-free decode path
// (NextRecordInto with a reused scratch record) against the same file as
// BenchmarkIntervalScanThroughput.
func BenchmarkIntervalScanInto(b *testing.B) {
	sb := interval.NewSeekBuffer()
	hdr := interval.Header{ProfileVersion: profile.StdVersion, Markers: map[uint64]string{}}
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	rec := interval.Record{Type: events.EvMPISend, Bebits: profile.Complete, Dura: 10, Extra: []uint64{1, 2, 3, 4, 5, 6}}
	for i := 0; i < n; i++ {
		rec.Start = clock.Time(i)
		if err := w.Add(&rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	f, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := f.Scan()
		var r interval.Record
		count := 0
		for sc.NextRecordInto(&r) == nil {
			count++
		}
		if count != n {
			b.Fatalf("scanned %d records", count)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
}

// --- header v4 compact encoding ------------------------------------------

// benchIntervalRecords builds the record mix the v3/v4 comparison
// benchmarks share: MPI sends with six extras, increasing start times.
func benchIntervalRecords(n int) []interval.Record {
	recs := make([]interval.Record, n)
	for i := range recs {
		recs[i] = interval.Record{
			Type: events.EvMPISend, Bebits: profile.Complete,
			Start: clock.Time(i) * 100, Dura: 10,
			CPU: uint16(i % 4), Node: uint16(i % 2), Thread: uint16(i % 8),
			Extra: []uint64{1, 2, 3, 4, 5, 6},
		}
	}
	return recs
}

func writeBenchInterval(b *testing.B, version uint32, recs []interval.Record) *interval.SeekBuffer {
	b.Helper()
	hdr := interval.Header{ProfileVersion: profile.StdVersion, HeaderVersion: version, Markers: map[uint64]string{}}
	sb := interval.NewSeekBuffer()
	w, err := interval.NewWriter(sb, hdr, interval.WriterOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return sb
}

// BenchmarkIntervalEncodeV4 compares write throughput and on-disk size
// between the fixed-width v3 frames and the v4 compact encoding
// (B/record is the whole-file size divided by the record count).
func BenchmarkIntervalEncodeV4(b *testing.B) {
	const n = 20000
	recs := benchIntervalRecords(n)
	for _, v := range []uint32{3, 4} {
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				size = len(writeBenchInterval(b, v, recs).Bytes())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
			b.ReportMetric(float64(size)/n, "B/record")
		})
	}
}

// BenchmarkIntervalScanV4 compares sequential decode throughput
// (NextRecordInto) over the same records at v3 and v4 — the acceptance
// bar for the compact encoding is scan speed no worse than v3.
func BenchmarkIntervalScanV4(b *testing.B) {
	const n = 100000
	recs := benchIntervalRecords(n)
	for _, v := range []uint32{3, 4} {
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			f, err := interval.NewFile(writeBenchInterval(b, v, recs))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sc := f.Scan()
				var r interval.Record
				count := 0
				for sc.NextRecordInto(&r) == nil {
					count++
				}
				if count != n {
					b.Fatalf("scanned %d records", count)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/record")
		})
	}
}

// --- indexed analysis backend: window seeks + parallel stats -------------

// windowBenchFile merges a 4-node run with small frames so the window
// benchmarks have many frames and directories to skip.
func windowBenchFile(b *testing.B) *interval.File {
	b.Helper()
	raws := stormRawsN(b, 4, 8000)
	files := convertedFiles(b, raws)
	sb := interval.NewSeekBuffer()
	if _, err := merge.Merge(files, sb, merge.Options{Writer: interval.WriterOptions{FrameBytes: 8 << 10}}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.NewFile(sb)
	if err != nil {
		b.Fatal(err)
	}
	return mf
}

// BenchmarkStatsWindow compares a table generated over a narrow (5%)
// time window through the indexed window path — only frames overlapping
// the window decode, and whole directories skip on their stored bounds —
// against the same table paying for the full scan. frames/op reports
// how many frame payloads each variant actually decoded.
func BenchmarkStatsWindow(b *testing.B) {
	mf := windowBenchFile(b)
	first, last, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	span := last - first
	lo, hi := first+span/2, first+span/2+span/20
	prog := `table name=c x=("node", node) y=("n", dura, count)`
	for _, v := range []struct {
		name string
		opts stats.Options
	}{
		{"window", stats.Options{Window: true, Lo: lo, Hi: hi, Parallel: 1}},
		{"fullscan", stats.Options{Parallel: 1}},
	} {
		b.Run(v.name, func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			start := mf.DecodedFrames()
			for i := 0; i < b.N; i++ {
				if _, err := stats.GenerateOpts(prog, []*interval.File{mf}, v.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mf.DecodedFrames()-start)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkStatsParallel runs the predefined tables at several frame-
// decode worker counts. The output is byte-identical at every width
// (asserted by the stats tests), so this measures the engine's
// scheduling cost and, on multi-core hosts, its speedup; on a 1-CPU
// host all widths degenerate to the sequential cost.
func BenchmarkStatsParallel(b *testing.B) {
	mf := windowBenchFile(b)
	prog := stats.Predefined(50)
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j%d", width), func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tables, err := stats.GenerateOpts(prog, []*interval.File{mf}, stats.Options{Parallel: width})
				if err != nil {
					b.Fatal(err)
				}
				if len(tables[0].Rows) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// BenchmarkStatsColumnar is the columnar-engine headline: the same
// multi-table program through the record-at-a-time evaluator (scalar),
// through the vectorized kernels decoding v4 frames straight into
// columnar batches (columnar-cold), and through the kernels fed from a
// decoded-record cache hook the way the trace service runs them
// (columnar-warm). Outputs are byte-identical across all three
// (asserted by internal/stats tests); only the evaluation cost differs.
func BenchmarkStatsColumnar(b *testing.B) {
	mf := windowBenchFile(b)
	prog := `table name=busy x=("state", state) y=("t", dura, sum) y=("n", dura, count)
table name=bynode x=("node", node) x=("bin", bin(start, 50)) y=("t", dura, sum)
table name=sends condition=(msgSizeSent > 0) x=("node", node) y=("bytes", msgSizeSent, sum)`
	run := func(b *testing.B, eng stats.Engine) {
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tables, err := stats.GenerateOpts(prog, []*interval.File{mf}, stats.Options{Parallel: 1, Engine: eng})
			if err != nil {
				b.Fatal(err)
			}
			if len(tables[0].Rows) == 0 {
				b.Fatal("empty table")
			}
		}
	}
	b.Run("scalar", func(b *testing.B) { run(b, stats.EngineScalar) })
	b.Run("columnar-cold", func(b *testing.B) { run(b, stats.EngineColumnar) })
	b.Run("columnar-warm", func(b *testing.B) {
		fes, err := mf.Frames()
		if err != nil {
			b.Fatal(err)
		}
		cache := make(map[int64][]interval.Record, len(fes))
		for _, fe := range fes {
			recs, err := mf.DecodeFrameDirect(fe)
			if err != nil {
				b.Fatal(err)
			}
			cache[fe.Offset] = recs
		}
		mf.SetFrameDecoder(func(_ *interval.File, fe interval.FrameEntry) ([]interval.Record, error) {
			return cache[fe.Offset], nil
		})
		defer mf.SetFrameDecoder(nil)
		run(b, stats.EngineColumnar)
	})
}

// --- trace query service (utetraced's serving layer) -------------------

// serveBench builds a service with one registered on-disk trace and
// returns it with the request URL of a half-run window query in count
// mode (all decode, no JSON bodies — the purest cache measurement).
func serveBench(b *testing.B, n int) (*tracesvc.Service, *tracesvc.Trace, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, n)
	svc := tracesvc.New(tracesvc.Config{})
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	start, end, _ := tr.Bounds()
	lo, hi := start.Seconds(), (start + (end-start)/2).Seconds()
	url := fmt.Sprintf("/v1/traces/%s/records?window=%.9f:%.9f&count=1", tr.ID, lo, hi)
	return svc, tr, url
}

func serveOnce(b *testing.B, svc *tracesvc.Service, url string) {
	b.Helper()
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	if w.Code != 200 {
		b.Fatalf("GET %s: %d %s", url, w.Code, w.Body)
	}
}

// BenchmarkServeWindowCold measures the window query with the cache
// flushed before every request: each iteration re-reads and re-decodes
// every overlapping frame.
func BenchmarkServeWindowCold(b *testing.B) {
	svc, tr, url := serveBench(b, 20000)
	defer svc.Close()
	runtime.GC()
	b.ResetTimer()
	start := tr.File().DecodedFrames()
	for i := 0; i < b.N; i++ {
		svc.Cache().Flush()
		serveOnce(b, svc, url)
	}
	b.ReportMetric(float64(tr.File().DecodedFrames()-start)/float64(b.N), "frames/op")
}

// BenchmarkServeWindowCached is the same query against a warm cache:
// the acceptance bar is ≥5x faster than cold with zero frames decoded
// per operation (the frames/op metric must print 0).
func BenchmarkServeWindowCached(b *testing.B) {
	svc, tr, url := serveBench(b, 20000)
	defer svc.Close()
	serveOnce(b, svc, url) // warm the cache
	runtime.GC()
	b.ResetTimer()
	start := tr.File().DecodedFrames()
	for i := 0; i < b.N; i++ {
		serveOnce(b, svc, url)
	}
	decoded := tr.File().DecodedFrames() - start
	b.ReportMetric(float64(decoded)/float64(b.N), "frames/op")
	if decoded != 0 {
		b.Fatalf("warm queries decoded %d frames", decoded)
	}
}

// --- summary-pyramid preview (the O(pixels) pan/zoom path) -------------

// servePreviewBench registers a trace whose .pyr sidecar exists on disk
// (so Open attaches it) and returns a preview URL builder for a window
// aligned to base-cell boundaries with bins dividing the cell span —
// the geometry under which the pyramid engine needs zero frame decodes.
func servePreviewBench(b *testing.B, n int) (*tracesvc.Service, *tracesvc.Trace, func(engine string) string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, n)
	if _, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{}); err != nil {
		b.Fatal(err)
	}
	svc := tracesvc.New(tracesvc.Config{})
	tr, err := svc.Registry().Open(path)
	if err != nil {
		b.Fatal(err)
	}
	p := tr.File().Pyramid()
	if p == nil || len(p.Levels) == 0 {
		b.Fatal("no pyramid attached")
	}
	base := p.Levels[0]
	bins := 16
	cells := len(base.Cells) / bins * bins
	if cells == 0 {
		bins, cells = 1, len(base.Cells)
	}
	lo := clock.Time(base.First) * base.Width
	hi := lo + clock.Time(cells)*base.Width
	window := fmt.Sprintf("%.9f:%.9f", lo.Seconds(), hi.Seconds())
	// The URL carries the window in seconds; the aligned bounds must
	// survive the decimal round-trip, or the zero-decode assertion
	// below would silently measure edge remainders instead.
	if plo, phi, err := clock.ParseWindow(window); err != nil || plo != lo || phi != hi {
		b.Fatalf("window %q round-trips to [%v .. %v], want [%v .. %v]", window, plo, phi, lo, hi)
	}
	urlFor := func(engine string) string {
		return fmt.Sprintf("/v1/traces/%s/preview.svg?view=preview&bins=%d&window=%s&engine=%s",
			tr.ID, bins, window, engine)
	}
	return svc, tr, urlFor
}

// BenchmarkServePreview compares the preview endpoint's engines on the
// same aligned window: cold scan (decoded-frame cache flushed before
// every request), warm scan (all frames resident), and pyramid — which
// answers from O(bins) stored cells and fails the benchmark if it
// decodes a single frame, cache or no cache.
func BenchmarkServePreview(b *testing.B) {
	run := func(b *testing.B, engine string, flush, wantZero bool) {
		svc, tr, urlFor := servePreviewBench(b, 20000)
		defer svc.Close()
		url := urlFor(engine)
		serveOnce(b, svc, url)
		if flush {
			svc.Cache().Flush()
		}
		runtime.GC()
		b.ResetTimer()
		start := tr.File().DecodedFrames()
		for i := 0; i < b.N; i++ {
			if flush {
				svc.Cache().Flush()
			}
			serveOnce(b, svc, url)
		}
		decoded := tr.File().DecodedFrames() - start
		b.ReportMetric(float64(decoded)/float64(b.N), "frames/op")
		if wantZero && decoded != 0 {
			b.Fatalf("pyramid preview decoded %d frames", decoded)
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, "scan", true, false) })
	b.Run("scan", func(b *testing.B) { run(b, "scan", false, false) })
	b.Run("pyramid", func(b *testing.B) { run(b, "pyramid", true, true) })
}

// BenchmarkPreviewZoom drives a zoom ladder — ten nested windows, each
// halving the span around the run's midpoint — through BuildPreview:
// the interactive pan/zoom pattern whose per-frame cost the pyramid
// removes. The windows are deliberately not cell-aligned, so the
// pyramid engine pays only the O(1) edge-remainder decodes per window
// while the scan engine re-decodes everything it overlaps.
func BenchmarkPreviewZoom(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.ute")
	writeIntervalFile(b, path, interval.CurrentHeaderVersion, 20000)
	if _, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{}); err != nil {
		b.Fatal(err)
	}
	mf, err := interval.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer mf.Close()
	fs, fe, _, err := mf.Stats()
	if err != nil {
		b.Fatal(err)
	}
	mid := fs + (fe-fs)/2
	var windows [][2]clock.Time
	for z := 1; z <= 10; z++ {
		half := (fe - fs) >> uint(z+1)
		windows = append(windows, [2]clock.Time{mid - half, mid + half})
	}
	run := func(b *testing.B, eng interval.SummaryEngine) {
		runtime.GC()
		b.ResetTimer()
		frames := 0
		for i := 0; i < b.N; i++ {
			for _, w := range windows {
				res, err := render.BuildPreview(mf, render.PreviewOptions{
					Bins: 64, T0: w[0], T1: w[1], Engine: eng,
				})
				if err != nil {
					b.Fatal(err)
				}
				frames += res.FramesDecoded
			}
		}
		b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
	}
	b.Run("pyramid", func(b *testing.B) { run(b, interval.SummaryPyramid) })
	b.Run("scan", func(b *testing.B) { run(b, interval.SummaryScan) })
}

// --- streaming ingest (the live write path) ----------------------------

// ingestPreambleCut returns the end offset of the last thread-info or
// marker-define record in a raw stream: everything up to it is the
// node's batch-0 preamble per the ingest contract.
func ingestPreambleCut(b *testing.B, raw []byte) int {
	b.Helper()
	off := convert.RawHeaderSize
	cut := off
	for off < len(raw) {
		rec, n, err := trace.Decode(raw[off:])
		if err != nil {
			b.Fatalf("raw trace undecodable at %d: %v", off, err)
		}
		off += n
		if rec.Type == events.EvThreadInfo || rec.Type == events.EvMarkerDefine {
			cut = off
		}
	}
	return cut
}

// benchIngest drives complete ingest sessions end to end — per-node raw
// streams posted as sequence-numbered batches, incrementally converted,
// clock-adjusted, live-merged, and sealed to an on-disk v4 file — and
// reports raw events ingested per second.
func benchIngest(b *testing.B, nodes int) {
	raws := stormRawsN(b, nodes, 120)
	ev := rawEventCount(b, raws)
	var total int64
	batches := make([][][]byte, nodes)
	for n, raw := range raws {
		total += int64(len(raw))
		cut := ingestPreambleCut(b, raw)
		bs := [][]byte{raw[:cut]}
		const chunk = 64 << 10
		for rest := raw[cut:]; len(rest) > 0; {
			c := chunk
			if c > len(rest) {
				c = len(rest)
			}
			bs, rest = append(bs, rest[:c]), rest[c:]
		}
		batches[n] = bs
	}
	dir := b.TempDir()
	b.SetBytes(total)
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := ingest.NewManager(ingest.Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := m.Begin(fmt.Sprintf("bench-%d", i), nodes, interval.WriterOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, nodes)
		for n := range batches {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for seq, batch := range batches[n] {
					last := seq == len(batches[n])-1
					if err := sess.Batch(n, uint64(seq), last, batch); err != nil {
						errs[n] = err
						return
					}
				}
			}(n)
		}
		wg.Wait()
		if err := sess.Wait(); err != nil {
			b.Fatal(err)
		}
		for n, err := range errs {
			if err != nil {
				b.Fatalf("node %d: %v", n, err)
			}
		}
	}
	b.ReportMetric(float64(ev)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkIngest measures the streaming write path at one node (pure
// pipeline cost, no merge contention) and at four (the live k-way merge
// fed by concurrent posters).
func BenchmarkIngest(b *testing.B) {
	b.Run("nodes1", func(b *testing.B) { benchIngest(b, 1) })
	b.Run("nodes4", func(b *testing.B) { benchIngest(b, 4) })
}
