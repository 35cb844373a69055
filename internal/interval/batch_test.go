package interval

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// writeMixedFile builds a file whose records span the shapes the batch
// decoder must handle: no extras (Running), fixed extras of several
// widths, and the trailing vector of Waitall — across enough records to
// force multiple frames and directories.
func writeMixedFile(t *testing.T, seed uint64, n int, hdrVersion uint32) (*SeekBuffer, []Record) {
	t.Helper()
	rng := xrand.New(seed)
	recs := make([]Record, n)
	for i := range recs {
		r := Record{
			Bebits: profile.Complete,
			Start:  clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:   clock.Time(rng.Int63n(int64(5 * clock.Millisecond))),
			CPU:    uint16(rng.Intn(4)),
			Node:   uint16(rng.Intn(2)),
			Thread: uint16(rng.Intn(8)),
		}
		switch rng.Intn(4) {
		case 0:
			r.Type = events.EvRunning
		case 1:
			r.Type = events.EvMPISend
			r.Extra = []uint64{rng.Uint64() % 1000, 7, uint64(i), 0, 1, rng.Uint64()}
		case 2:
			r.Type = events.EvMPIBarrier
			r.Extra = []uint64{1, rng.Uint64() % (1 << 40)}
		default:
			r.Type = events.EvMPIWaitall
			nv := rng.Intn(5)
			r.Extra = []uint64{uint64(nv), rng.Uint64()}
			r.Vec = make([]uint64, 3*nv)
			for j := range r.Vec {
				r.Vec[j] = rng.Uint64() % 100000
			}
		}
		recs[i] = r
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End() < recs[j].End() })
	hdr := testHeader()
	hdr.HeaderVersion = hdrVersion
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, hdr, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb, recs
}

func eqRecord(a, b Record) bool {
	if a.Type != b.Type || a.Bebits != b.Bebits || a.Start != b.Start ||
		a.Dura != b.Dura || a.CPU != b.CPU || a.Node != b.Node || a.Thread != b.Thread {
		return false
	}
	if len(a.Extra) != len(b.Extra) || len(a.Vec) != len(b.Vec) {
		return false
	}
	for i := range a.Extra {
		if a.Extra[i] != b.Extra[i] {
			return false
		}
	}
	for i := range a.Vec {
		if a.Vec[i] != b.Vec[i] {
			return false
		}
	}
	return true
}

// scanFrames is the streaming oracle: it reads f with the Scanner (the
// per-record frame cursor, independent of Batch.Decode) and splits the
// records into frames by the directory's record counts.
func scanFrames(t *testing.T, f *File) ([]FrameEntry, [][]Record) {
	t.Helper()
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	all, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]Record, len(fes))
	for i, fe := range fes {
		if int(fe.Records) > len(all) {
			t.Fatalf("frame %d claims %d records, %d left in the scan", i, fe.Records, len(all))
		}
		frames[i], all = all[:fe.Records], all[fe.Records:]
	}
	if len(all) != 0 {
		t.Fatalf("%d scanned records beyond the last frame", len(all))
	}
	return fes, frames
}

// TestBatchMatchesRecordDecode decodes every frame of every header
// version into one reused Batch and compares it row by row with the
// streaming Scanner's records, so stale column contents from previous
// frames would be caught and the oracle shares no decode code with the
// batch path.
func TestBatchMatchesRecordDecode(t *testing.T) {
	for v := uint32(1); v <= CurrentHeaderVersion; v++ {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			sb, _ := writeMixedFile(t, 0xb0b0+uint64(v), 400, v)
			f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fes, frames := scanFrames(t, f)
			if len(fes) < 4 {
				t.Fatalf("want a multi-frame file, got %d frames", len(fes))
			}
			var b Batch
			total := 0
			for fi, fe := range fes {
				if err := f.DecodeFrameBatch(fe, &b); err != nil {
					t.Fatal(err)
				}
				recs := frames[fi]
				if b.N != len(recs) {
					t.Fatalf("frame at %d: batch N=%d, scanner=%d", fe.Offset, b.N, len(recs))
				}
				for i, want := range recs {
					if got := b.Row(i); !eqRecord(got, want) {
						t.Fatalf("frame at %d row %d: batch %+v, scanner %+v", fe.Offset, i, got, want)
					}
					if want.End() != b.End(i) {
						t.Fatalf("frame at %d row %d: End mismatch", fe.Offset, i)
					}
				}
				total += b.N
			}
			if total != 400 {
				t.Fatalf("decoded %d records, wrote 400", total)
			}
		})
	}
}

// TestBatchRecords pins the copy-out contract: Records equals the
// scanner's records, leaves Extra/Vec nil on rows without values, gives
// every row a capacity-clamped slice (appending to one never writes
// into its neighbour), and shares nothing with the batch, which is
// reused for the next frame.
func TestBatchRecords(t *testing.T) {
	for v := uint32(1); v <= CurrentHeaderVersion; v++ {
		sb, _ := writeMixedFile(t, 0xc0c0+uint64(v), 300, v)
		f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fes, frames := scanFrames(t, f)
		var b Batch
		var kept [][]Record
		var noExtra, noVec int
		for fi, fe := range fes {
			if err := f.DecodeFrameBatch(fe, &b); err != nil {
				t.Fatal(err)
			}
			recs := b.Records()
			if len(recs) != len(frames[fi]) {
				t.Fatalf("v%d frame %d: Records returned %d, scanner %d", v, fi, len(recs), len(frames[fi]))
			}
			for i := range recs {
				if !reflect.DeepEqual(recs[i], frames[fi][i]) {
					t.Fatalf("v%d frame %d row %d: Records %+v, scanner %+v", v, fi, i, recs[i], frames[fi][i])
				}
				if b.ExtraOff[i+1] == b.ExtraOff[i] {
					noExtra++
					if recs[i].Extra != nil {
						t.Fatalf("v%d frame %d row %d: empty Extra is %#v, want nil", v, fi, i, recs[i].Extra)
					}
				}
				if b.VecOff[i+1] == b.VecOff[i] {
					noVec++
					if recs[i].Vec != nil {
						t.Fatalf("v%d frame %d row %d: empty Vec is %#v, want nil", v, fi, i, recs[i].Vec)
					}
				}
			}
			for i := 0; i+1 < len(recs); i++ {
				x, next := recs[i].Extra, recs[i+1].Extra
				if len(x) == 0 || len(next) == 0 {
					continue
				}
				before := append([]uint64(nil), next...)
				recs[i].Extra = append(x, 0xdead)
				if !reflect.DeepEqual(recs[i+1].Extra, before) {
					t.Fatalf("v%d frame %d: appending to row %d's Extra changed row %d", v, fi, i, i+1)
				}
				recs[i].Extra = x
			}
			kept = append(kept, recs)
		}
		if noExtra == 0 || noVec == 0 {
			t.Fatalf("v%d: file has no rows without extras (%d) or vectors (%d)", v, noExtra, noVec)
		}
		// Every earlier frame's records must survive the batch being
		// refilled by each later frame.
		for fi := range kept {
			if !reflect.DeepEqual(kept[fi], frames[fi]) {
				t.Fatalf("v%d frame %d: records changed after the batch was reused", v, fi)
			}
		}
	}
}

// TestDecodeFrameDirectAllocs guards the copy-out's allocation count: a
// frame decodes into a pooled batch and leaves it as three allocations
// (records, extras, vectors) no matter how many extra and vector values
// it carries — far more here than one 4096-value arena chunk holds.
func TestDecodeFrameDirectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items; count is meaningless")
	}
	rng := xrand.New(5)
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{FrameBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	values := 0
	for i := 0; i < 200; i++ {
		r := Record{Type: events.EvMPIWaitall, Bebits: profile.Complete, Start: clock.Time(i * 10), Dura: 5, Node: uint16(i % 2)}
		r.Extra = []uint64{30, rng.Uint64() % 1000}
		r.Vec = make([]uint64, 90)
		for j := range r.Vec {
			r.Vec[j] = rng.Uint64() % 100000
		}
		values += len(r.Extra) + len(r.Vec)
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f := openFile(t, sb)
	if f.Header.HeaderVersion != 4 {
		t.Fatalf("header version %d, want a v4 file", f.Header.HeaderVersion)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != 1 || values <= 3*4096 {
		t.Fatalf("want one frame of more than %d values, got %d frames, %d values", 3*4096, len(fes), values)
	}
	if _, err := f.DecodeFrameDirect(fes[0]); err != nil { // warm the batch and buffer pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.DecodeFrameDirect(fes[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("DecodeFrameDirect allocates %v times per frame, want at most 4", allocs)
	}
}

// TestMapFilesBatchesOrdering verifies the engine delivers frames in
// (file, frame) order with the scanner's contents, at several worker
// counts, across files sharing one worker pool.
func TestMapFilesBatchesOrdering(t *testing.T) {
	sb, _ := writeMixedFile(t, 7, 300, CurrentHeaderVersion)
	sb2, _ := writeMixedFile(t, 8, 150, CurrentHeaderVersion)
	var files []*File
	var want []string
	sum := func(recs []Record) uint64 {
		var s uint64
		for _, r := range recs {
			s += uint64(r.Start) + uint64(r.Type)
			for _, e := range r.Extra {
				s += e
			}
			for _, v := range r.Vec {
				s += v
			}
		}
		return s
	}
	for fi, s := range []*SeekBuffer{sb, sb2} {
		f, err := NewFile(NewSeekBufferFrom(s.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		fes, frames := scanFrames(t, f)
		for i, fe := range fes {
			want = append(want, fmt.Sprintf("%d/%d: sum=%d", fi, fe.Offset, sum(frames[i])))
		}
	}
	for _, par := range []int{1, 2, 8} {
		var got []string
		err := MapFilesBatches(files, MapOptions{Parallel: par},
			func(_ int, _ FrameEntry, b *Batch) (uint64, error) {
				var s uint64
				for i := 0; i < b.N; i++ {
					s += uint64(b.Start[i]) + uint64(b.Type[i])
					for _, e := range b.ExtraRow(i) {
						s += e
					}
					for _, v := range b.VecRow(i) {
						s += v
					}
				}
				return s, nil
			},
			func(file int, fe FrameEntry, s uint64) error {
				got = append(got, fmt.Sprintf("%d/%d: sum=%d", file, fe.Offset, s))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("-j%d order/content differs:\n%v\nwant:\n%v", par, got, want)
		}
	}
}

// TestBatchDecodeZeroAlloc pins the warm-path allocation count: once a
// Batch's columns have grown to the largest frame, re-decoding frames
// into it must not allocate at all, on both the v4 varint path and the
// fixed-width path.
func TestBatchDecodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; count is meaningless")
	}
	for _, v := range []uint32{3, CurrentHeaderVersion} {
		sb, _ := writeMixedFile(t, 21, 300, v)
		f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fes, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for _, fe := range fes { // warm up: grow columns and the read buffer pool
			if err := f.DecodeFrameBatch(fe, &b); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, fe := range fes {
				if err := f.DecodeFrameBatch(fe, &b); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("v%d: warm batch decode allocates %v times per pass, want 0", v, allocs)
		}
	}
}
