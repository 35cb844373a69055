package convert

import (
	"bytes"
	"io"
	"os"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/trace"
)

// runWorkload executes main on a fresh in-memory world and returns the
// raw trace bytes per node.
func runWorkload(t *testing.T, nodes, tasksPerNode, cpus int, main func(*mpisim.Proc)) [][]byte {
	t.Helper()
	bufs := make([]*bytes.Buffer, nodes)
	ws := make([]io.Writer, nodes)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       nodes,
			CPUsPerNode: cpus,
			TraceOpts:   trace.Options{Enabled: events.MaskAll},
			Seed:        42,
		},
		TasksPerNode: tasksPerNode,
	}
	w, err := mpisim.New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(main)
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	raws := make([][]byte, nodes)
	for i := range bufs {
		raws[i] = bufs[i].Bytes()
	}
	return raws
}

func convertAll(t *testing.T, raws [][]byte) ([]*interval.File, []*Result) {
	t.Helper()
	outs, results, err := ConvertBuffers(raws, Options{})
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
	return files, results
}

func TestSimpleSendRecvIntervals(t *testing.T) {
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Compute(clock.Millisecond)
			p.Send(1, 7, 2048)
		} else {
			p.Recv(0, 7)
		}
	})
	files, results := convertAll(t, raws)

	// Node 0: one MPI_Send interval, uninterrupted -> Complete.
	recs, err := files[0].Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	var sends []interval.Record
	for _, r := range recs {
		if r.Type == events.EvMPISend {
			sends = append(sends, r)
		}
	}
	if len(sends) != 1 || sends[0].Bebits != profile.Complete {
		t.Fatalf("sends: %+v", sends)
	}
	if v, ok := sends[0].Field(events.FieldMsgSizeSent); !ok || v != 2048 {
		t.Fatalf("send msgSizeSent = %d %v", v, ok)
	}
	if v, ok := sends[0].Field(events.FieldPeer); !ok || v != 1 {
		t.Fatalf("send peer = %d %v", v, ok)
	}
	if results[0].Events == 0 || results[0].Records == 0 {
		t.Fatalf("empty result: %+v", results[0])
	}
}

func TestBlockedRecvSplitsIntoPieces(t *testing.T) {
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Compute(20 * clock.Millisecond) // make the receiver block
			p.Send(1, 1, 128)
		} else {
			p.Recv(0, 1)
		}
	})
	files, _ := convertAll(t, raws)
	recs, _ := files[1].Scan().All()
	var pieces []interval.Record
	for _, r := range recs {
		if r.Type == events.EvMPIRecv {
			pieces = append(pieces, r)
		}
	}
	// The receive blocks -> thread undispatched -> at least begin + end.
	if len(pieces) < 2 {
		t.Fatalf("recv produced %d pieces, want >= 2: %+v", len(pieces), pieces)
	}
	if pieces[0].Bebits != profile.Begin {
		t.Fatalf("first piece bebits %s", pieces[0].Bebits)
	}
	last := pieces[len(pieces)-1]
	if last.Bebits != profile.End {
		t.Fatalf("last piece bebits %s", last.Bebits)
	}
	for _, mid := range pieces[1 : len(pieces)-1] {
		if mid.Bebits != profile.Continuation {
			t.Fatalf("middle piece bebits %s", mid.Bebits)
		}
	}
	// Only the final piece carries the message size; the sum over pieces
	// equals the message size (the Figure 5 invariant).
	var sum uint64
	for _, r := range pieces {
		v, _ := r.Field(events.FieldMsgSizeRecv)
		sum += v
	}
	if sum != 128 {
		t.Fatalf("msgSizeRecv sum over pieces = %d", sum)
	}
	// Pieces must not overlap and must be ordered.
	for i := 1; i < len(pieces); i++ {
		if pieces[i].Start < pieces[i-1].End() {
			t.Fatalf("pieces overlap: %v then %v", pieces[i-1], pieces[i])
		}
	}
}

func TestRunningStateFillsGaps(t *testing.T) {
	raws := runWorkload(t, 1, 1, 1, func(p *mpisim.Proc) {
		p.Compute(5 * clock.Millisecond)
		p.Barrier() // single-task barrier, instant
		p.Compute(5 * clock.Millisecond)
	})
	files, _ := convertAll(t, raws)
	recs, _ := files[0].Scan().All()
	var running, barrierCalls int
	for _, r := range recs {
		switch r.Type {
		case events.EvRunning:
			running++
		case events.EvMPIBarrier:
			// Count calls, not pieces: a call has exactly one record with
			// a begin edge.
			if r.Bebits == profile.Begin || r.Bebits == profile.Complete {
				barrierCalls++
			}
		}
	}
	if running < 2 {
		t.Fatalf("running pieces = %d, want >= 2 (before and after the barrier)", running)
	}
	if barrierCalls != 1 {
		t.Fatalf("barrier calls = %d", barrierCalls)
	}
}

func TestInnermostPiecesTileDispatchedTime(t *testing.T) {
	// Property: on every thread, the emitted pieces (which describe the
	// innermost active state) never overlap, and they exactly cover the
	// dispatched periods of the thread.
	raws := runWorkload(t, 2, 2, 2, func(p *mpisim.Proc) {
		peer := (p.Rank() + 1) % p.Size()
		m := p.DefineMarker("phase")
		p.InMarker(m, func() {
			for i := 0; i < 5; i++ {
				p.Compute(clock.Millisecond)
				if p.Rank()%2 == 0 {
					p.Send(peer, 1, 4096)
					p.Recv(mpisim.AnySource, 2)
				} else {
					p.Recv(mpisim.AnySource, 1)
					p.Send(peer, 2, 4096)
				}
			}
		})
		p.Barrier()
	})
	files, _ := convertAll(t, raws)
	for n, f := range files {
		recs, err := f.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		perThread := map[uint16][]interval.Record{}
		for _, r := range recs {
			if r.Type == events.EvGlobalClock {
				continue
			}
			perThread[r.Thread] = append(perThread[r.Thread], r)
		}
		for tid, rs := range perThread {
			// Sort by start; verify no overlaps among pieces.
			byStart := append([]interval.Record(nil), rs...)
			for i := range byStart {
				for j := i + 1; j < len(byStart); j++ {
					if byStart[j].Start < byStart[i].Start {
						byStart[i], byStart[j] = byStart[j], byStart[i]
					}
				}
			}
			for i := 1; i < len(byStart); i++ {
				if byStart[i].Start < byStart[i-1].End() {
					t.Fatalf("node %d thread %d: pieces overlap:\n%v\n%v",
						n, tid, byStart[i-1], byStart[i])
				}
			}
		}
	}
}

func TestMarkerPiecesSplitByMPI(t *testing.T) {
	// Paper §3.3: a marker state containing MPI calls is divided into
	// pieces by the MPI intervals.
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		m := p.DefineMarker("outer")
		p.MarkerBegin(m)
		p.Compute(clock.Millisecond)
		p.Barrier()
		p.Compute(clock.Millisecond)
		p.MarkerEnd(m)
	})
	files, _ := convertAll(t, raws)
	recs, _ := files[0].Scan().All()
	var marker []interval.Record
	for _, r := range recs {
		if r.Type == events.EvMarkerState {
			marker = append(marker, r)
		}
	}
	if len(marker) < 2 {
		t.Fatalf("marker state has %d pieces, want >= 2 (split by barrier)", len(marker))
	}
	if marker[0].Bebits != profile.Begin || marker[len(marker)-1].Bebits != profile.End {
		t.Fatalf("marker bebits: first %s last %s", marker[0].Bebits, marker[len(marker)-1].Bebits)
	}
	// End piece carries begin addr, end addr and the global marker id.
	last := marker[len(marker)-1]
	if v, _ := last.Field(events.FieldMarker); v == 0 {
		t.Fatal("marker id missing on end piece")
	}
	if v, _ := last.Field(events.FieldEndAddr); v == 0 {
		t.Fatal("endAddr missing on end piece")
	}
}

func TestMarkerIDReassignment(t *testing.T) {
	// Tasks define the same strings in different orders; after convert,
	// the same string must map to the same global id everywhere.
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		var a, b uint64
		if p.Rank() == 0 {
			a = p.DefineMarker("Initial Phase")
			b = p.DefineMarker("Compute Phase")
		} else {
			b = p.DefineMarker("Compute Phase")
			a = p.DefineMarker("Initial Phase")
		}
		p.InMarker(a, func() { p.Compute(clock.Millisecond) })
		p.InMarker(b, func() { p.Compute(clock.Millisecond) })
	})
	files, _ := convertAll(t, raws)

	idOf := func(f *interval.File, name string) uint64 {
		for id, s := range f.Header.Markers {
			if s == name {
				return id
			}
		}
		return 0
	}
	for _, name := range []string{"Initial Phase", "Compute Phase"} {
		id0, id1 := idOf(files[0], name), idOf(files[1], name)
		if id0 == 0 || id0 != id1 {
			t.Fatalf("marker %q ids differ across files: %d vs %d", name, id0, id1)
		}
	}
	// And the records reference the global ids, in both files.
	for fi, f := range files {
		recs, _ := f.Scan().All()
		seen := map[uint64]bool{}
		for _, r := range recs {
			if r.Type == events.EvMarkerState && (r.Bebits == profile.End || r.Bebits == profile.Complete) {
				id, _ := r.Field(events.FieldMarker)
				seen[id] = true
				if _, ok := f.Header.Markers[id]; !ok {
					t.Fatalf("file %d: marker record references unknown id %d", fi, id)
				}
			}
		}
		if len(seen) != 2 {
			t.Fatalf("file %d: saw marker ids %v", fi, seen)
		}
	}
}

func TestClockPairsCarriedThrough(t *testing.T) {
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		p.Compute(2500 * clock.Millisecond)
	})
	files, results := convertAll(t, raws)
	for n, f := range files {
		recs, _ := f.Scan().All()
		var pairs []clock.Pair
		for _, r := range recs {
			if r.Type == events.EvGlobalClock {
				g, _ := r.Field(events.FieldGlobal)
				pairs = append(pairs, clock.Pair{Global: clock.Time(g), Local: r.Start})
				if r.Dura != 0 {
					t.Fatalf("clock record with duration %v", r.Dura)
				}
			}
		}
		if len(pairs) < 3 {
			t.Fatalf("node %d: %d clock pairs in interval file", n, len(pairs))
		}
		if len(pairs) != len(results[n].ClockPairs) {
			t.Fatalf("node %d: result has %d pairs, file has %d", n, len(results[n].ClockPairs), len(pairs))
		}
		for i := range pairs {
			if pairs[i] != results[n].ClockPairs[i] {
				t.Fatalf("node %d pair %d mismatch", n, i)
			}
		}
	}
}

func TestThreadTableBuilt(t *testing.T) {
	raws := runWorkload(t, 1, 2, 4, func(p *mpisim.Proc) {
		p.Spawn(events.ThreadUser, func(q *mpisim.Proc) { q.Compute(clock.Millisecond) })
		p.Compute(clock.Millisecond)
		p.Barrier()
	})
	files, _ := convertAll(t, raws)
	th := files[0].Header.Threads
	if len(th) != 4 { // 2 tasks × (main + user)
		t.Fatalf("thread table has %d entries: %+v", len(th), th)
	}
	mpi, user := 0, 0
	for _, te := range th {
		switch te.Type {
		case events.ThreadMPI:
			mpi++
		case events.ThreadUser:
			user++
		}
		if te.Node != 0 {
			t.Fatalf("thread entry node %d", te.Node)
		}
	}
	if mpi != 2 || user != 2 {
		t.Fatalf("mpi=%d user=%d", mpi, user)
	}
	// LTIDs dense and sorted.
	for i, te := range th {
		if int(te.LTID) != i {
			t.Fatalf("thread table not sorted by LTID: %+v", th)
		}
	}
}

func TestCountMPICallsViaBebits(t *testing.T) {
	// Paper: "This type information allows us to properly count MPI
	// calls" — count records with a begin edge (Begin or Complete).
	const iters = 7
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				p.Send(1, 1, 100<<10) // rendezvous: sender blocks, splits
			} else {
				p.Compute(2 * clock.Millisecond)
				p.Recv(0, 1)
			}
		}
	})
	files, _ := convertAll(t, raws)
	count := 0
	recs, _ := files[0].Scan().All()
	for _, r := range recs {
		if r.Type == events.EvMPISend && (r.Bebits == profile.Begin || r.Bebits == profile.Complete) {
			count++
		}
	}
	if count != iters {
		t.Fatalf("counted %d MPI_Send calls, want %d", count, iters)
	}
}

func TestConvertDeterministic(t *testing.T) {
	raws := runWorkload(t, 2, 2, 2, func(p *mpisim.Proc) {
		p.Alltoall(1024)
		p.Compute(clock.Millisecond)
		p.Allreduce(64)
	})
	out1, _, err := ConvertBuffers(raws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := ConvertBuffers(raws, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out1 {
		if !bytes.Equal(out1[i].Bytes(), out2[i].Bytes()) {
			t.Fatalf("node %d: conversion not deterministic", i)
		}
	}
}

func TestEndTimeOrderingHolds(t *testing.T) {
	raws := runWorkload(t, 2, 2, 2, func(p *mpisim.Proc) {
		peer := (p.Rank() + 1) % p.Size()
		for i := 0; i < 20; i++ {
			p.Isend(peer, int32(i), 256)
			p.Recv(mpisim.AnySource, int32(i))
		}
		p.Barrier()
	})
	files, _ := convertAll(t, raws)
	for n, f := range files {
		recs, err := f.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].End() < recs[i-1].End() {
				t.Fatalf("node %d: record %d end %v < previous %v", n, i, recs[i].End(), recs[i-1].End())
			}
		}
	}
}

func TestMarkerRegistrySharedAcrossFiles(t *testing.T) {
	reg := NewMarkerRegistry()
	if reg.ID("a") != 1 || reg.ID("b") != 2 || reg.ID("a") != 1 {
		t.Fatal("registry ids not stable")
	}
	tbl := reg.Table()
	if tbl[1] != "a" || tbl[2] != "b" {
		t.Fatalf("table: %v", tbl)
	}
}

func TestConvertFilesOnDisk(t *testing.T) {
	raws := runWorkload(t, 2, 1, 1, func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, 64)
		} else {
			p.Recv(0, 1)
		}
	})
	dir := t.TempDir()
	rawPaths := make([]string, 2)
	outPaths := make([]string, 2)
	for i := range raws {
		rawPaths[i] = dir + "/raw." + string(rune('0'+i))
		outPaths[i] = dir + "/iv." + string(rune('0'+i))
		if err := writeFile(rawPaths[i], raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	results, err := ConvertAll(rawPaths, outPaths, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results: %d", len(results))
	}
	f, err := interval.Open(outPaths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.Scan().All()
	if err != nil || len(recs) == 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func writeFile(path string, b []byte) error {
	sb := interval.NewSeekBuffer()
	_, _ = sb.Write(b)
	return osWriteFile(path, sb.Bytes())
}

func osWriteFile(path string, b []byte) error { return os.WriteFile(path, b, 0o644) }

func TestIOIntervalsSplitAndPageMiss(t *testing.T) {
	// A blocking file read is undispatched mid-call: its interval splits
	// into pieces like a blocking MPI call; page misses become
	// zero-duration complete intervals.
	raws := runWorkload(t, 1, 1, 1, func(p *mpisim.Proc) {
		p.FileRead(1 << 20)
		p.PageMiss(0x1000)
		p.PageMiss(0x2000)
		p.Compute(clock.Millisecond)
	})
	files, _ := convertAll(t, raws)
	recs, _ := files[0].Scan().All()
	var ioPieces []interval.Record
	misses := 0
	for _, r := range recs {
		switch r.Type {
		case events.EvIORead:
			ioPieces = append(ioPieces, r)
		case events.EvPageMiss:
			misses++
			if r.Dura != 0 || r.Bebits != profile.Complete {
				t.Fatalf("page miss not a zero-duration complete: %v", r)
			}
		}
	}
	if len(ioPieces) < 2 {
		t.Fatalf("IO_Read pieces: %d, want >= 2 (split across the block)", len(ioPieces))
	}
	if ioPieces[0].Bebits != profile.Begin || ioPieces[len(ioPieces)-1].Bebits != profile.End {
		t.Fatalf("IO piece bebits: %v .. %v", ioPieces[0].Bebits, ioPieces[len(ioPieces)-1].Bebits)
	}
	var bytesSum uint64
	for _, r := range ioPieces {
		v, _ := r.Field(events.FieldIOBytes)
		bytesSum += v
	}
	if bytesSum != 1<<20 {
		t.Fatalf("ioBytes sum over pieces = %d", bytesSum)
	}
	if misses != 2 {
		t.Fatalf("page misses: %d", misses)
	}
}

func TestTolerantConvertOfWrappedTrace(t *testing.T) {
	// A wrap-mode trace starts mid-stream: entries/dispatches of open
	// states were evicted. Tolerant conversion must succeed, skip the
	// orphans, and keep the retained window's structure intact.
	bufs := make([]*bytes.Buffer, 2)
	ws := make([]io.Writer, 2)
	for i := range bufs {
		bufs[i] = &bytes.Buffer{}
		ws[i] = bufs[i]
	}
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       2,
			CPUsPerNode: 2,
			TraceOpts:   trace.Options{Enabled: events.MaskAll, Wrap: true, BufferSize: 4096},
			Seed:        42,
		},
		TasksPerNode: 1,
	}
	w, err := mpisim.New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(func(p *mpisim.Proc) {
		m := p.DefineMarker("long phase")
		p.MarkerBegin(m)
		peer := 1 - p.Rank()
		for i := 0; i < 200; i++ {
			p.Compute(clock.Millisecond)
			if p.Rank() == 0 {
				p.Send(peer, int32(i), 256)
				p.Recv(int32(peer), int32(i))
			} else {
				p.Recv(int32(peer), int32(i))
				p.Send(peer, int32(i), 256)
			}
		}
		p.MarkerEnd(m)
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	raws := [][]byte{bufs[0].Bytes(), bufs[1].Bytes()}

	// Strict conversion fails on the mid-stream trace.
	if _, _, err := ConvertBuffers(raws, Options{}); err == nil {
		t.Fatal("strict conversion of a wrapped trace unexpectedly succeeded")
	}

	// Tolerant conversion succeeds and reports skips.
	outs, results, err := ConvertBuffers(raws, Options{Tolerant: true})
	if err != nil {
		t.Fatal(err)
	}
	var skipped int64
	for _, r := range results {
		skipped += r.Skipped
	}
	if skipped == 0 {
		t.Fatal("tolerant conversion of a wrapped trace skipped nothing")
	}
	// The outputs are structurally valid end-time-ordered interval files.
	for i, sb := range outs {
		f, err := interval.NewFile(sb)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Validate(profile.Standard()); err != nil {
			t.Fatalf("output %d invalid: %v", i, err)
		}
	}
}
