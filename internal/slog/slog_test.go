package slog_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/mpisim"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
	"tracefw/internal/testutil"
)

var shape = testutil.Shape{Nodes: 2, TasksPerNode: 1, CPUs: 2, Seed: 5}

// phased is a workload with a marked long phase and steady messaging —
// enough structure for preview and arrow assertions.
func phased(p *mpisim.Proc) {
	peer := 1 - p.Rank()
	m := p.DefineMarker("Main Phase")
	p.MarkerBegin(m)
	for i := 0; i < 60; i++ {
		p.Compute(clock.Millisecond)
		if p.Rank() == 0 {
			p.Send(peer, int32(i), 1024)
			p.Recv(int32(peer), int32(i))
		} else {
			p.Recv(int32(peer), int32(i))
			p.Send(peer, int32(i), 1024)
		}
	}
	p.MarkerEnd(m)
	p.Barrier()
}

func buildSlog(t *testing.T, opts slog.Options, work func(*mpisim.Proc)) (*slog.File, *slog.BuildResult) {
	t.Helper()
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, work)
	sb := interval.NewSeekBuffer()
	res, err := slog.Build(mf, sb, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := slog.Read(sb)
	if err != nil {
		t.Fatal(err)
	}
	return f, res
}

func TestBuildAndReadRoundTrip(t *testing.T) {
	f, res := buildSlog(t, slog.Options{FrameBytes: 2048}, phased)
	if res.Frames < 3 {
		t.Fatalf("only %d frames", res.Frames)
	}
	if len(f.Index) != res.Frames {
		t.Fatalf("index has %d entries, result says %d", len(f.Index), res.Frames)
	}
	if f.TEnd <= f.TStart {
		t.Fatalf("time span [%v %v]", f.TStart, f.TEnd)
	}
	if len(f.Threads) != 2 {
		t.Fatalf("threads: %d", len(f.Threads))
	}
	if f.Markers[1] != "Main Phase" {
		t.Fatalf("markers: %v", f.Markers)
	}
	// Total records across frames match the build count plus pseudo data.
	var n int64
	for i := range f.Index {
		fd, err := f.ReadFrame(i)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(fd.Intervals))
	}
	if n != res.Records {
		t.Fatalf("frames hold %d interval records, build saw %d", n, res.Records)
	}
}

func TestFrameAtBinarySearch(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	for _, probe := range []clock.Time{f.TStart, (f.TStart + f.TEnd) / 2, f.TEnd} {
		i, ok := f.FrameAt(probe)
		if !ok {
			t.Fatalf("no frame for %v", probe)
		}
		if f.Index[i].End < probe {
			t.Fatalf("frame %d ends %v before probe %v", i, f.Index[i].End, probe)
		}
		if i > 0 && f.Index[i-1].End >= probe {
			t.Fatalf("frame %d not the first covering %v", i, probe)
		}
	}
	if _, ok := f.FrameAt(f.TEnd + clock.Second); ok {
		t.Fatal("probe past end found a frame")
	}
}

func TestArrowsMatched(t *testing.T) {
	f, res := buildSlog(t, slog.Options{FrameBytes: 4096}, phased)
	// 60 iterations × 2 directions = 120 messages.
	if res.Arrows != 120 {
		t.Fatalf("arrows = %d, want 120", res.Arrows)
	}
	var seen int
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Arrows {
			seen++
			if a.RecvTime < a.SendTime {
				t.Fatalf("arrow backwards: %+v", a)
			}
			if a.Bytes != 1024 {
				t.Fatalf("arrow bytes %d", a.Bytes)
			}
			if a.SrcNode == a.DstNode {
				t.Fatalf("arrow within one node: %+v", a)
			}
			// The arrow must land in the frame containing its recv time.
			if f.Index[i].End < a.RecvTime || (i > 0 && f.Index[i-1].End >= a.RecvTime) {
				t.Fatalf("arrow recv %v misplaced in frame %d [%v %v]",
					a.RecvTime, i, f.Index[i].Start, f.Index[i].End)
			}
		}
	}
	if int64(seen) != res.Arrows {
		t.Fatalf("read %d arrows, build made %d", seen, res.Arrows)
	}
}

func TestCrossingArrowCopies(t *testing.T) {
	// A message sent at the start and received at the very end spans all
	// frames: middle frames must carry pseudo copies.
	work := func(p *mpisim.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 99, 512) // eager: completes immediately
			for i := 0; i < 50; i++ {
				p.Compute(clock.Millisecond)
				p.Sendrecv(1, int32(i), 256, 1, int32(i))
			}
		} else {
			for i := 0; i < 50; i++ {
				p.Compute(clock.Millisecond)
				p.Sendrecv(0, int32(i), 256, 0, int32(i))
			}
			p.Recv(0, 99) // received long after it was sent
		}
	}
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, work)
	if len(f.Index) < 4 {
		t.Fatalf("need several frames, got %d", len(f.Index))
	}
	// Find the long arrow's frame and check middle frames have copies.
	copies := 0
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Crossing {
			if a.Tag == 99 {
				copies++
			}
		}
	}
	if copies == 0 {
		t.Fatal("no crossing copies of the long arrow")
	}

	f2, _ := buildSlog(t, slog.Options{FrameBytes: 1024, NoCrossingCopies: true}, work)
	for i := range f2.Index {
		fd, _ := f2.ReadFrame(i)
		if len(fd.Crossing) != 0 {
			t.Fatal("NoCrossingCopies still produced copies")
		}
	}
}

func TestPseudoIntervalsInFrames(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	// The marker is open for nearly the whole run: frames after the first
	// must carry marker pseudo continuations.
	withPseudo := 0
	for i := 1; i < len(f.Index)-1; i++ {
		fd, _ := f.ReadFrame(i)
		for _, r := range fd.Pseudo {
			if r.Type == events.EvMarkerState && r.Dura == 0 && r.Bebits == profile.Continuation {
				withPseudo++
				break
			}
		}
	}
	if withPseudo < len(f.Index)/2 {
		t.Fatalf("only %d/%d middle frames carry marker pseudo intervals", withPseudo, len(f.Index)-2)
	}
}

func TestPreviewAccounting(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 4096, Bins: 40}, phased)
	p := f.Preview
	if len(p.Dur) != len(events.StateTypes) || len(p.Dur[0]) != 40 {
		t.Fatalf("preview shape %dx%d", len(p.Dur), len(p.Dur[0]))
	}
	// Total allocated duration per state equals the sum of record
	// durations of that state (proportional allocation conserves time).
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, phased)
	want := map[events.Type]clock.Time{}
	recs, _ := mf.Scan().All()
	for _, r := range recs {
		want[r.Type] += r.Dura
	}
	for si, ty := range p.States {
		var got clock.Time
		for _, d := range p.Dur[si] {
			got += d
		}
		diff := got - want[ty]
		if diff < 0 {
			diff = -diff
		}
		// Rounding: one ns per bin boundary crossed per record.
		if diff > clock.Time(len(recs)+40) {
			t.Fatalf("state %s preview duration %v, records say %v", ty.Name(), got, want[ty])
		}
	}
	// Send count: 60 sends per direction plus pieces do not inflate it.
	si := stateIdx(p.States, events.EvMPISend)
	if p.Count[si] != 120 {
		t.Fatalf("send count %d, want 120", p.Count[si])
	}
	// Bin bounds tile the run.
	lo, _ := p.BinBounds(0)
	_, hi := p.BinBounds(39)
	if lo != p.TStart || hi != p.TEnd {
		t.Fatalf("bin bounds [%v %v] vs run [%v %v]", lo, hi, p.TStart, p.TEnd)
	}
}

func TestSlogmerge(t *testing.T) {
	raws := testutil.RunWorkload(t, shape, phased)
	files := testutil.ConvertRun(t, raws, interval.WriterOptions{})
	sb := interval.NewSeekBuffer()
	mres, bres, err := slog.Slogmerge(files, sb, merge.Options{}, slog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mres.Records == 0 || bres.Records == 0 {
		t.Fatalf("empty slogmerge: %+v %+v", mres, bres)
	}
	f, err := slog.Read(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Index) != bres.Frames {
		t.Fatalf("frames %d vs %d", len(f.Index), bres.Frames)
	}
}

func TestFrameFetchIndependentOfPosition(t *testing.T) {
	f, _ := buildSlog(t, slog.Options{FrameBytes: 1024}, phased)
	// Fetch the last frame directly; it must decode without touching the
	// earlier ones (correct offsets in the index).
	last := len(f.Index) - 1
	fd, err := f.ReadFrame(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Intervals) == 0 {
		t.Fatal("last frame empty")
	}
	if _, err := f.ReadFrame(-1); err == nil {
		t.Fatal("negative frame index accepted")
	}
	if _, err := f.ReadFrame(last + 1); err == nil {
		t.Fatal("out-of-range frame index accepted")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	sb := interval.NewSeekBuffer()
	sb.Write([]byte("certainly not an slog file, but long enough to parse a header from"))
	if _, err := slog.Read(sb); err == nil {
		t.Fatal("garbage accepted")
	}
}

func stateIdx(states []events.Type, ty events.Type) int {
	for i, s := range states {
		if s == ty {
			return i
		}
	}
	return -1
}

func TestWaitallEnvelopesProduceArrows(t *testing.T) {
	// Halo exchange completed exclusively through Waitall: the arrows
	// must still match via the Waitall records' vector envelopes.
	work := func(p *mpisim.Proc) {
		peer := 1 - p.Rank()
		for i := 0; i < 15; i++ {
			rr := p.Irecv(int32(peer), int32(i))
			sr := p.Isend(peer, int32(i), 2048)
			p.Compute(clock.Millisecond)
			p.Waitall(rr, sr)
		}
		p.Barrier()
	}
	f, res := buildSlog(t, slog.Options{FrameBytes: 4096}, work)
	// 15 messages in each direction.
	if res.Arrows != 30 {
		t.Fatalf("arrows = %d, want 30", res.Arrows)
	}
	for i := range f.Index {
		fd, _ := f.ReadFrame(i)
		for _, a := range fd.Arrows {
			if a.Bytes != 2048 || a.RecvTime < a.SendTime {
				t.Fatalf("bad arrow: %+v", a)
			}
		}
	}
}

// TestBuildParallelByteIdentical: the SLOG writer must emit the exact
// same bytes at every frame-decode worker count — all order-sensitive
// work (matching, partitioning, serialization) runs in the engine's
// frame-order reduce. Do not weaken this to a structural comparison.
func TestBuildParallelByteIdentical(t *testing.T) {
	mf, _ := testutil.Pipeline(t, shape, merge.Options{}, phased)
	build := func(j int) []byte {
		sb := interval.NewSeekBuffer()
		if _, err := slog.Build(mf, sb, slog.Options{FrameBytes: 1024, Parallel: j}); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), sb.Bytes()...)
	}
	want := build(1)
	for _, j := range []int{2, 4, 9} {
		if !bytes.Equal(build(j), want) {
			t.Fatalf("-j %d slog bytes differ from sequential build", j)
		}
	}
}

// TestBuildGoldenDigest pins the SLOG bytes of two workloads at
// FrameBytes 2048 to SHA-256 digests captured before the batch-fed and
// record-fed pass 1 were collapsed into one: the phased workload, and a
// Waitall-completed halo exchange whose arrows come from the vector
// envelopes. Every worker count must reproduce them exactly.
func TestBuildGoldenDigest(t *testing.T) {
	waitallWork := func(p *mpisim.Proc) {
		peer := 1 - p.Rank()
		for i := 0; i < 15; i++ {
			rr := p.Irecv(int32(peer), int32(i))
			sr := p.Isend(peer, int32(i), 2048)
			p.Compute(clock.Millisecond)
			p.Waitall(rr, sr)
		}
		p.Barrier()
	}
	for _, tc := range []struct {
		name string
		work func(*mpisim.Proc)
		want string
	}{
		{"phased", phased, "283a1ec675e1e73b07eaa72b034e7ecf0a276a6f0a39d93e3f3c63cfffdc469f"},
		{"waitall", waitallWork, "81850cc57c450e6710cf16dfd91b765c43b8bf12fb6dd3f6544f4067a1b343b9"},
	} {
		mf, _ := testutil.Pipeline(t, shape, merge.Options{}, tc.work)
		for _, par := range []int{0, 1, 4} {
			sb := interval.NewSeekBuffer()
			if _, err := slog.Build(mf, sb, slog.Options{FrameBytes: 2048, Parallel: par}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(sb.Bytes())); got != tc.want {
				t.Fatalf("%s (parallel=%d): slog sha256 %s, want %s", tc.name, par, got, tc.want)
			}
		}
	}
}
