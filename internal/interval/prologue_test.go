package interval

import (
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// prologueFile writes n regular records through a writer whose frame
// prologue is open(k) continuation records for the k-th frame, and
// returns the frames' decoded records.
func prologueFile(t *testing.T, n, frameBytes int, open func(k int) int) [][]Record {
	t.Helper()
	var last clock.Time
	k := 0
	opts := WriterOptions{FrameBytes: frameBytes, FramesPerDir: 4}
	opts.FramePrologue = func() []Record {
		recs := make([]Record, open(k))
		for i := range recs {
			recs[i] = Record{Type: events.EvRunning, Bebits: profile.Continuation,
				Start: last, Node: uint16(i), Extra: []uint64{uint64(i)}}
		}
		k++
		return recs
	}
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		r := mkRecord(i)
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
		last = r.End()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]Record, len(fes))
	for i, fe := range fes {
		if frames[i], err = f.DecodeFrameDirect(fe); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	return frames
}

// splitPrologue returns the fixed-width bytes of a frame's leading
// continuation records and of the whole frame.
func splitPrologue(recs []Record) (prologue, total int) {
	lead := true
	for i := range recs {
		sz := recs[i].EncodedSize()
		lead = lead && recs[i].Bebits == profile.Continuation
		if lead {
			prologue += sz
		}
		total += sz
	}
	return prologue, total
}

// TestPrologueLargerThanFrame: when the open set alone outgrows
// FrameBytes, frames grow with it, and every closed frame is still at
// least half regular records.
func TestPrologueLargerThanFrame(t *testing.T) {
	const frameBytes = 512
	// 20 to 39 open states of ~42 bytes each: 840..1640 prologue bytes,
	// always more than the whole frame budget.
	frames := prologueFile(t, 2000, frameBytes, func(k int) int { return 20 + k%20 })
	if len(frames) < 10 {
		t.Fatalf("only %d frames", len(frames))
	}
	regular := 0
	for i, recs := range frames {
		p, total := splitPrologue(recs)
		if p <= frameBytes {
			t.Fatalf("frame %d: prologue %d bytes, want more than FrameBytes %d", i, p, frameBytes)
		}
		for _, r := range recs {
			if r.Bebits != profile.Continuation {
				regular++
			}
		}
		if i < len(frames)-1 && 2*p > total {
			t.Errorf("frame %d: prologue %d of %d fixed-width bytes, more than half", i, p, total)
		}
	}
	if regular != 2000 {
		t.Fatalf("frames hold %d regular records, want 2000", regular)
	}
}

// TestPrologueUnderHalfFrameKeepsBoundaries: a prologue within half a
// frame leaves the frame boundaries exactly where the plain FrameBytes
// rule (prologue bytes counted, no floor) puts them.
func TestPrologueUnderHalfFrameKeepsBoundaries(t *testing.T) {
	const frameBytes = 1024
	open := func(k int) int { return k % 12 } // at most 11 × 42 < 512 bytes
	frames := prologueFile(t, 3000, frameBytes, open)

	// Reference partition: a frame opens with its prologue and closes on
	// the record that brings it to frameBytes.
	var want []int // regular records per frame
	size, n := 0, 0
	for i := 0; i < 3000; i++ {
		if n == 0 {
			for j := 0; j < open(len(want)); j++ {
				r := Record{Type: events.EvRunning, Bebits: profile.Continuation, Extra: []uint64{0}}
				size += r.EncodedSize()
			}
		}
		r := mkRecord(i)
		size += r.EncodedSize()
		n++
		if size >= frameBytes {
			want = append(want, n)
			size, n = 0, 0
		}
	}
	if n > 0 {
		want = append(want, n)
	}

	if len(frames) != len(want) {
		t.Fatalf("%d frames, reference partition has %d", len(frames), len(want))
	}
	for i, recs := range frames {
		p, _ := splitPrologue(recs)
		if 2*p > frameBytes {
			t.Fatalf("frame %d: prologue %d bytes is over half a frame", i, p)
		}
		regular := 0
		for _, r := range recs {
			if r.Bebits != profile.Continuation {
				regular++
			}
		}
		if regular != want[i] {
			t.Fatalf("frame %d holds %d regular records, reference partition %d", i, regular, want[i])
		}
	}
}
