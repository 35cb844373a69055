package tracefw

// Whole-pipeline property tests: random SPMD workloads are pushed
// through trace → convert → merge → SLOG, and cross-stage invariants are
// checked for every seed. These are the repository's strongest
// integration guarantees: they hold for arbitrary interleavings of
// computation, blocking and nonblocking communication, collectives,
// markers, and I/O.

import (
	"bytes"
	"sort"
	"testing"

	"tracefw/internal/convert"
	"tracefw/internal/core"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/workload"
)

func TestPipelinePropertiesRandomWorkloads(t *testing.T) {
	shapes := []struct {
		nodes, tpn, cpus int
	}{
		{1, 1, 1},
		{2, 1, 2},
		{2, 2, 2},
		{3, 2, 4},
	}
	for seed := uint64(1); seed <= 16; seed++ {
		sh := shapes[int(seed)%len(shapes)]
		run, err := core.Execute(core.Config{
			Nodes:        sh.nodes,
			CPUsPerNode:  sh.cpus,
			TasksPerNode: sh.tpn,
			Seed:         seed * 7,
			Convert:      interval.WriterOptions{FrameBytes: 4096},
		}, workload.Random{Seed: seed, Steps: 25}.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkPipelineInvariants(t, seed, run)
		run.Close()
	}
}

func checkPipelineInvariants(t *testing.T, seed uint64, run *core.Run) {
	t.Helper()

	// Invariant 1: the merged file is structurally valid against the
	// standard profile (ordering, frame metadata, record layouts).
	if _, err := run.Merged.Validate(profile.Standard()); err != nil {
		t.Fatalf("seed %d: merged file invalid: %v", seed, err)
	}

	recs, err := run.Merged.Scan().All()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	// Invariant 2: per thread, pieces never overlap (the innermost-state
	// timeline is a partial function of time). Zero-duration records are
	// exempt: point events (PageMiss) and the merge's frame-start pseudo
	// continuations legitimately sit inside enclosing pieces.
	perThread := map[[2]uint16][]interval.Record{}
	for _, r := range recs {
		if r.Type == events.EvGlobalClock || r.Dura == 0 {
			continue
		}
		k := [2]uint16{r.Node, r.Thread}
		perThread[k] = append(perThread[k], r)
	}
	for k, rs := range perThread {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		for i := 1; i < len(rs); i++ {
			if rs[i].Start < rs[i-1].End() {
				t.Fatalf("seed %d: thread %v pieces overlap:\n%v\n%v", seed, k, rs[i-1], rs[i])
			}
		}
	}

	// Invariant 3: per state, begin/end pieces balance exactly and every
	// piece sequence is begin (continuation)* end.
	type skey struct {
		node, thread uint16
		ty           events.Type
	}
	openCount := map[skey]int{}
	for _, r := range recs {
		if r.Type == events.EvGlobalClock {
			continue
		}
		k := skey{r.Node, r.Thread, r.Type}
		switch r.Bebits {
		case profile.Begin:
			openCount[k]++
		case profile.Continuation:
			if openCount[k] <= 0 {
				t.Fatalf("seed %d: continuation of %s with nothing open", seed, r.Type.Name())
			}
		case profile.End:
			if openCount[k] <= 0 {
				t.Fatalf("seed %d: end of %s with nothing open", seed, r.Type.Name())
			}
			openCount[k]--
		}
	}
	for k, n := range openCount {
		if n != 0 {
			t.Fatalf("seed %d: %d unclosed %s states on n%d/t%d", seed, n, k.ty.Name(), k.node, k.thread)
		}
	}

	// Invariant 4: bytes conservation — total msgSizeSent on final send
	// pieces equals total msgSizeRecv on final receive-completion pieces
	// (every message is sent once and received once).
	var sent, recvd uint64
	for _, r := range recs {
		if r.Bebits != profile.Complete && r.Bebits != profile.End {
			continue
		}
		switch r.Type {
		case events.EvMPISend, events.EvMPIIsend, events.EvMPISsend, events.EvMPISendrecv:
			v, _ := r.Field(events.FieldMsgSizeSent)
			sent += v
		}
		switch r.Type {
		case events.EvMPIRecv, events.EvMPISendrecv:
			v, _ := r.Field(events.FieldMsgSizeRecv)
			recvd += v
		case events.EvMPIWait:
			v, _ := r.Field(events.FieldMsgSizeRecv)
			recvd += v
		case events.EvMPIWaitall:
			for i := 2; i < len(r.Vec); i += 3 {
				recvd += r.Vec[i]
			}
		}
	}
	if sent != recvd {
		t.Fatalf("seed %d: bytes not conserved: sent %d, received %d", seed, sent, recvd)
	}

	// Invariant 5: every point-to-point message produced exactly one
	// arrow (seqno-matched), so arrows == messages sent.
	var messages int64
	for _, r := range recs {
		if r.Bebits != profile.Complete && r.Bebits != profile.End {
			continue
		}
		switch r.Type {
		case events.EvMPISend, events.EvMPIIsend, events.EvMPISsend, events.EvMPISendrecv:
			if v, _ := r.Field(events.FieldSeqno); v != 0 {
				messages++
			}
		}
	}
	if run.SlogResult.Arrows != messages {
		t.Fatalf("seed %d: %d arrows for %d messages", seed, run.SlogResult.Arrows, messages)
	}

	// Invariant 6: preview durations conserve per-state record time
	// (within per-record rounding).
	perState := map[events.Type]int64{}
	for _, r := range recs {
		perState[r.Type] += int64(r.Dura)
	}
	for si, ty := range run.Slog.Preview.States {
		var got int64
		for _, d := range run.Slog.Preview.Dur[si] {
			got += int64(d)
		}
		diff := got - perState[ty]
		if diff < 0 {
			diff = -diff
		}
		if diff > int64(len(recs)+run.Slog.Bins) {
			t.Fatalf("seed %d: preview %s duration %d vs records %d", seed, ty.Name(), got, perState[ty])
		}
	}
}

// TestParallelPipelineMatchesSynchronous: over random workloads with
// drifting clocks, the parallel pipeline (worker-pool convert, read-ahead
// merge sources) emits convert outputs and a merged record stream
// byte-identical to the fully synchronous pipeline, across estimators
// and clock-record retention.
func TestParallelPipelineMatchesSynchronous(t *testing.T) {
	estimators := []merge.Estimator{
		merge.EstimatorRMS, merge.EstimatorLastPair, merge.EstimatorPiecewise, merge.EstimatorNone,
	}
	for seed := uint64(1); seed <= 8; seed++ {
		run, err := core.Execute(core.Config{
			Nodes:        3,
			CPUsPerNode:  2,
			TasksPerNode: 2,
			Seed:         seed,
			Drifts:       []float64{40e-6, -25e-6, 10e-6},
			Convert:      interval.WriterOptions{FrameBytes: 4096},
		}, workload.Random{Seed: seed, Steps: 30}.Main())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		raws := run.RawTraces
		run.Close()

		mopts := merge.Options{
			Estimator:        estimators[int(seed)%len(estimators)],
			KeepClockRecords: seed%2 == 0,
		}
		pipeline := func(parallel int) (convOuts [][]byte, merged []byte) {
			t.Helper()
			outs, _, err := convert.ConvertBuffers(raws, convert.Options{
				Writer:   interval.WriterOptions{FrameBytes: 4096},
				Parallel: parallel,
			})
			if err != nil {
				t.Fatalf("seed %d parallel %d: convert: %v", seed, parallel, err)
			}
			files := make([]*interval.File, len(outs))
			for i, sb := range outs {
				convOuts = append(convOuts, sb.Bytes())
				if files[i], err = interval.NewFile(sb); err != nil {
					t.Fatal(err)
				}
			}
			mo := mopts
			mo.Writer = interval.WriterOptions{FrameBytes: 4096}
			mo.Parallel = parallel
			msb := interval.NewSeekBuffer()
			if _, err := merge.Merge(files, msb, mo); err != nil {
				t.Fatalf("seed %d parallel %d: merge: %v", seed, parallel, err)
			}
			return convOuts, msb.Bytes()
		}

		seqConv, seqMerged := pipeline(1)
		for _, width := range []int{2, 6} {
			parConv, parMerged := pipeline(width)
			for i := range seqConv {
				if !bytes.Equal(parConv[i], seqConv[i]) {
					t.Fatalf("seed %d width %d: convert output %d differs from synchronous run", seed, width, i)
				}
			}
			if !bytes.Equal(parMerged, seqMerged) {
				t.Fatalf("seed %d width %d: merged output differs from synchronous run", seed, width)
			}
		}
	}
}

// TestPipelineSoak pushes a substantially larger random workload through
// the pipeline to exercise multi-directory interval files and many-frame
// SLOG files under the same invariants.
func TestPipelineSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	run, err := core.Execute(core.Config{
		Nodes:        4,
		CPUsPerNode:  4,
		TasksPerNode: 2,
		Seed:         99,
		Convert:      interval.WriterOptions{FrameBytes: 8 << 10, FramesPerDir: 4},
	}, workload.Random{Seed: 99, Steps: 500}.Main())
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	if run.TotalEvents() < 12000 {
		t.Fatalf("soak run too small: %d events", run.TotalEvents())
	}
	checkPipelineInvariants(t, 99, run)
	// The merged file must span several directories.
	dirs, err := run.Merged.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("soak produced only %d directories", len(dirs))
	}
	if len(run.Slog.Index) < 8 {
		t.Fatalf("soak produced only %d slog frames", len(run.Slog.Index))
	}
}
