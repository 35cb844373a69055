// Command utemerge merges per-node interval files into a single interval
// file (the paper's merge utility, §3.1): it aligns the files by their
// first global clock records, adjusts local timestamps for clock drift
// (RMS-of-adjacent-slopes ratio by default), merges by end time with a
// balanced tree, and plants zero-duration continuation pseudo-intervals
// at frame starts. With -slog it additionally writes the SLOG file for
// the viewer (the paper's slogmerge).
//
// At pipeline width -j above 1 (default: GOMAXPROCS) every input gets a
// read-ahead decode goroutine feeding the merge through a bounded
// channel, so the balanced tree never stalls on frame decode; -j 1
// selects the fully synchronous path. Both produce byte-identical
// output.
//
// Usage:
//
//	utemerge [-o merged.ute] [-slog trace.slog] [-pyramid]
//	         [-estimator rms|lastpair|piecewise|none]
//	         [-outlier-tol T] [-keep-clock] [-no-pseudo] [-linear] [-j N]
//	         trace.0.ute trace.1.ute ...
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/slog"
)

func main() {
	var (
		out        = flag.String("o", "merged.ute", "merged interval file")
		slogOut    = flag.String("slog", "", "also write an SLOG file here")
		estimator  = flag.String("estimator", "rms", "clock ratio estimator: rms, lastpair, piecewise, none")
		outlierTol = flag.Float64("outlier-tol", 1e-3, "clock-pair outlier tolerance (0 disables filtering)")
		keepClock  = flag.Bool("keep-clock", false, "keep adjusted global-clock records in the output")
		noPseudo   = flag.Bool("no-pseudo", false, "do not plant frame-start pseudo-intervals")
		linear     = flag.Bool("linear", false, "use a linear scan instead of the balanced tree (ablation)")
		frameBytes = flag.Int("frame-bytes", 0, "target frame payload size (0 = 64 KiB)")
		jobs       = flag.Int("j", 0, "pipeline width: read-ahead decode when above 1 (0 = GOMAXPROCS, 1 = synchronous)")
		pyramid    = flag.Bool("pyramid", false, "also build the merged file's summary-pyramid sidecar (<out>.pyr)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "utemerge: no input files")
		os.Exit(2)
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "utemerge: -j must be >= 0")
		os.Exit(2)
	}
	est, err := merge.ParseEstimator(*estimator)
	if err != nil {
		fatal(err)
	}
	opts := merge.Options{
		Writer:           interval.WriterOptions{FrameBytes: *frameBytes},
		Estimator:        est,
		OutlierTol:       *outlierTol,
		KeepClockRecords: *keepClock,
		NoPseudo:         *noPseudo,
		Linear:           *linear,
		Parallel:         *jobs,
	}
	start := time.Now()
	res, err := merge.MergeFiles(flag.Args(), *out, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("utemerge: %d inputs -> %s (%d records, %d pseudo) in %v\n",
		res.Inputs, *out, res.Records, res.Pseudo, time.Since(start))
	for i, r := range res.Ratios {
		fmt.Printf("utemerge:   input %d: anchor (G=%v, L=%v), ratio %.9f\n",
			i, res.Anchors[i].Global, res.Anchors[i].Local, r)
	}
	if *pyramid {
		p, err := interval.BuildPyramidSidecar(*out, interval.PyramidOptions{})
		if err != nil {
			fatal(err)
		}
		cells := 0
		for _, lv := range p.Levels {
			cells += len(lv.Cells)
		}
		fmt.Printf("utemerge: pyramid %s (%d levels, %d cells, base width %v)\n",
			interval.PyramidPath(*out), len(p.Levels), cells, p.BaseWidth)
	}
	if *slogOut != "" {
		mf, err := interval.Open(*out)
		if err != nil {
			fatal(err)
		}
		defer mf.Close()
		fp, err := os.Create(*slogOut)
		if err != nil {
			fatal(err)
		}
		bres, err := slog.Build(mf, fp, slog.Options{FrameBytes: *frameBytes, Parallel: *jobs})
		if cerr := fp.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("utemerge: slog %s (%d frames, %d arrows, %d pseudo records)\n",
			*slogOut, bres.Frames, bres.Arrows, bres.Pseudo)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "utemerge:", err)
	os.Exit(1)
}
