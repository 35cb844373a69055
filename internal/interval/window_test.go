package interval

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// writeRandomFile writes n records with pseudo-random start times and
// durations (sorted by end time, as the format requires) under the
// given header version, returning the file and the records in written
// order. Small frame/dir limits force several directories.
func writeRandomFile(t *testing.T, seed uint64, n int, hdrVersion uint32) (*SeekBuffer, []Record) {
	t.Helper()
	rng := xrand.New(seed)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Type:   events.EvMPISend,
			Bebits: profile.Complete,
			Start:  clock.Time(rng.Int63n(int64(100 * clock.Millisecond))),
			Dura:   clock.Time(rng.Int63n(int64(5 * clock.Millisecond))),
			CPU:    uint16(rng.Intn(4)),
			Node:   uint16(rng.Intn(2)),
			Thread: uint16(rng.Intn(8)),
			Extra:  []uint64{rng.Uint64() % 1000, 7, uint64(i), 0, 0, 0},
		}
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

func openFile(t *testing.T, sb *SeekBuffer) *File {
	t.Helper()
	f, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDirAggregatesMatchEntries(t *testing.T) {
	sb, _ := writeRandomFile(t, 1, 800, CurrentHeaderVersion)
	f := openFile(t, sb)
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("want several directories, got %d", len(dirs))
	}
	for di, d := range dirs {
		var lo, hi clock.Time
		var n int64
		for i, fe := range d.Entries {
			if i == 0 || fe.Start < lo {
				lo = fe.Start
			}
			if i == 0 || fe.End > hi {
				hi = fe.End
			}
			n += int64(fe.Records)
		}
		if d.Start != lo || d.End != hi || d.Records != n {
			t.Fatalf("dir %d: aggregates [%v %v] %d, entries say [%v %v] %d",
				di, d.Start, d.End, d.Records, lo, hi, n)
		}
	}
}

// TestV1FileCompat writes the same records under header version 1 (the
// pre-aggregate directory layout) and checks that reading — scans,
// window queries, reconstructed directory aggregates, stats — agrees
// with the version-2 file.
func TestV1FileCompat(t *testing.T) {
	sb1, recs := writeRandomFile(t, 2, 600, 1)
	sb2, _ := writeRandomFile(t, 2, 600, CurrentHeaderVersion)

	f1, f2 := openFile(t, sb1), openFile(t, sb2)
	if f1.Header.HeaderVersion != 1 || f2.Header.HeaderVersion != CurrentHeaderVersion {
		t.Fatalf("header versions %d, %d", f1.Header.HeaderVersion, f2.Header.HeaderVersion)
	}

	all1, err := f1.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	all2, err := f2.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all1, all2) {
		t.Fatal("v1 and v2 scans disagree")
	}
	if len(all1) != len(recs) {
		t.Fatalf("scan yields %d records, wrote %d", len(all1), len(recs))
	}

	d1, err := f1.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := f2.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("dir counts %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i].Start != d2[i].Start || d1[i].End != d2[i].End || d1[i].Records != d2[i].Records {
			t.Fatalf("dir %d: v1 reconstructed [%v %v] %d, v2 stored [%v %v] %d",
				i, d1[i].Start, d1[i].End, d1[i].Records, d2[i].Start, d2[i].End, d2[i].Records)
		}
	}

	s1a, s1b, n1, err := f1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	s2a, s2b, n2, err := f2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s1a != s2a || s1b != s2b || n1 != n2 {
		t.Fatalf("stats disagree: v1 [%v %v] %d, v2 [%v %v] %d", s1a, s1b, n1, s2a, s2b, n2)
	}
}

// windowCases derives a spread of windows (empty, partial, full,
// degenerate) from the record span.
func windowCases(recs []Record) [][2]clock.Time {
	span := recs[len(recs)-1].End()
	return [][2]clock.Time{
		{0, span},                    // everything
		{span / 4, span / 2},         // middle
		{0, span / 10},               // early slice
		{span - span/10, span},       // late slice
		{span / 3, span / 3},         // single instant
		{span + 1, span * 2},         // past the end
		{-1000, -1},                  // before the start
		{span / 2, span/2 + 100_000}, // narrow
		{span / 5, 4 * span / 5},     // wide interior
	}
}

// TestFramesInWindowOracle checks FramesInWindow against brute-force
// filtering of the full frame list, on both header versions.
func TestFramesInWindowOracle(t *testing.T) {
	for _, version := range []uint32{1, CurrentHeaderVersion} {
		for seed := uint64(10); seed < 14; seed++ {
			sb, recs := writeRandomFile(t, seed, 500, version)
			f := openFile(t, sb)
			frames, err := f.Frames()
			if err != nil {
				t.Fatal(err)
			}
			for _, wc := range windowCases(recs) {
				lo, hi := wc[0], wc[1]
				got, err := f.FramesInWindow(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				var want []FrameEntry
				for _, fe := range frames {
					if fe.End >= lo && fe.Start <= hi {
						want = append(want, fe)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("v%d seed %d window [%v %v]: got %d frames, want %d",
						version, seed, lo, hi, len(got), len(want))
				}
			}
		}
	}
}

// TestWindowProperty drives FramesInWindow and ScanWindow with
// quick-generated windows: for any [lo, hi], the frames returned are
// exactly the overlap-filtered frame list and the scanned records are
// exactly those frames' records.
func TestWindowProperty(t *testing.T) {
	sb, recs := writeRandomFile(t, 20, 500, CurrentHeaderVersion)
	f := openFile(t, sb)
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	span := int64(recs[len(recs)-1].End())
	prop := func(a, b uint64) bool {
		lo := clock.Time(int64(a%uint64(2*span)) - span/2)
		hi := clock.Time(int64(b%uint64(2*span)) - span/2)
		if hi < lo {
			lo, hi = hi, lo
		}
		got, err := f.FramesInWindow(lo, hi)
		if err != nil {
			return false
		}
		var want []FrameEntry
		for _, fe := range frames {
			if fe.End >= lo && fe.Start <= hi {
				want = append(want, fe)
			}
		}
		if !reflect.DeepEqual(got, want) {
			return false
		}
		scanned, err := f.ScanWindow(lo, hi).All()
		if err != nil {
			return false
		}
		var n int
		for _, fe := range want {
			n += int(fe.Records)
		}
		return len(scanned) == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScanWindowDecodesOnlyOverlapping is the decode-count guarantee:
// a windowed scan reads exactly the frames overlapping the window and
// yields exactly their records.
func TestScanWindowDecodesOnlyOverlapping(t *testing.T) {
	for _, version := range []uint32{1, CurrentHeaderVersion} {
		sb, recs := writeRandomFile(t, 3, 700, version)
		oracleF := openFile(t, sb)
		for _, wc := range windowCases(recs) {
			lo, hi := wc[0], wc[1]
			overlapping, err := oracleF.FramesInWindow(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			for _, fe := range overlapping {
				rs, err := oracleF.DecodeFrameDirect(fe)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rs...)
			}

			f := openFile(t, sb) // fresh file: clean decode counter
			got, err := f.ScanWindow(lo, hi).All()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d window [%v %v]: scan yields %d records, oracle %d",
					version, lo, hi, len(got), len(want))
			}
			if f.DecodedFrames() != int64(len(overlapping)) {
				t.Fatalf("v%d window [%v %v]: decoded %d frames, only %d overlap",
					version, lo, hi, f.DecodedFrames(), len(overlapping))
			}
		}
	}
}

// TestSeekTimeOracle checks SeekTime against the frame list: scanning
// after SeekTime(t) must produce every record from the first frame
// whose end time reaches t, and decode nothing before it.
func TestSeekTimeOracle(t *testing.T) {
	for _, version := range []uint32{1, CurrentHeaderVersion} {
		sb, recs := writeRandomFile(t, 4, 600, version)
		oracleF := openFile(t, sb)
		frames, err := oracleF.Frames()
		if err != nil {
			t.Fatal(err)
		}
		span := recs[len(recs)-1].End()
		targets := []clock.Time{0, -5, span / 4, span / 2, 3 * span / 4, span, span + 1}
		for _, fe := range frames[:3] {
			targets = append(targets, fe.End, fe.End+1)
		}
		for _, target := range targets {
			first := len(frames)
			for i, fe := range frames {
				if fe.End >= target {
					first = i
					break
				}
			}
			var want []Record
			for _, fe := range frames[first:] {
				rs, err := oracleF.DecodeFrameDirect(fe)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, rs...)
			}

			f := openFile(t, sb)
			sc := f.Scan()
			if err := sc.SeekTime(target); err != nil {
				t.Fatal(err)
			}
			got, err := sc.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("v%d SeekTime(%v): got %d records, want %d (first frame %d of %d)",
					version, target, len(got), len(want), first, len(frames))
			}
			if f.DecodedFrames() != int64(len(frames)-first) {
				t.Fatalf("v%d SeekTime(%v): decoded %d frames, want %d",
					version, target, f.DecodedFrames(), len(frames)-first)
			}
		}
	}
}

// TestSeekTimeRestartsAfterEOF checks that SeekTime clears a sticky
// io.EOF so a scanner can be reused for several point queries.
func TestSeekTimeRestartsAfterEOF(t *testing.T) {
	sb, recs := writeRandomFile(t, 5, 100, CurrentHeaderVersion)
	f := openFile(t, sb)
	sc := f.Scan()
	if _, err := sc.All(); err != nil {
		t.Fatal(err)
	}
	if err := sc.SeekTime(0); err != nil {
		t.Fatal(err)
	}
	again, err := sc.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(recs) {
		t.Fatalf("rescan after EOF: %d records, want %d", len(again), len(recs))
	}
}

// TestMapFramesMatchesScan runs the map-reduce engine at several worker
// counts and checks that the reduce stage observes exactly the
// sequential frame order with exactly the sequential records.
func TestMapFramesMatchesScan(t *testing.T) {
	sb, _ := writeRandomFile(t, 6, 600, CurrentHeaderVersion)
	ref := openFile(t, sb)
	frames, err := ref.Frames()
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := ref.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		f := openFile(t, sb)
		var gotOrder []int64
		var gotRecs []Record
		err := MapFilesBatches([]*File{f}, MapOptions{Parallel: workers},
			func(_ int, _ FrameEntry, b *Batch) ([]Record, error) { return b.Records(), nil },
			func(_ int, fe FrameEntry, recs []Record) error {
				gotOrder = append(gotOrder, fe.Offset)
				gotRecs = append(gotRecs, recs...)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(gotOrder) != len(frames) {
			t.Fatalf("j=%d: reduce saw %d frames, want %d", workers, len(gotOrder), len(frames))
		}
		for i, fe := range frames {
			if gotOrder[i] != fe.Offset {
				t.Fatalf("j=%d: frame %d reduced out of order", workers, i)
			}
		}
		if !reflect.DeepEqual(gotRecs, wantRecs) {
			t.Fatalf("j=%d: reduced records differ from sequential scan", workers)
		}
	}
}

// TestMapFramesWindowDecodeCount: the engine's window option must skip
// non-overlapping frames without decoding them.
func TestMapFramesWindowDecodeCount(t *testing.T) {
	sb, recs := writeRandomFile(t, 7, 600, CurrentHeaderVersion)
	ref := openFile(t, sb)
	span := recs[len(recs)-1].End()
	lo, hi := span/4, span/2
	overlapping, err := ref.FramesInWindow(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	allFrames, err := ref.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(overlapping) == 0 || len(overlapping) == len(allFrames) {
		t.Fatalf("degenerate window: %d of %d frames overlap", len(overlapping), len(allFrames))
	}

	f := openFile(t, sb)
	var seen int
	err = MapFilesBatches([]*File{f}, MapOptions{Parallel: 4, Window: true, Lo: lo, Hi: hi},
		func(_ int, _ FrameEntry, b *Batch) (int, error) { return b.N, nil },
		func(_ int, _ FrameEntry, n int) error { seen += n; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if f.DecodedFrames() != int64(len(overlapping)) {
		t.Fatalf("engine decoded %d frames, only %d overlap", f.DecodedFrames(), len(overlapping))
	}
	var want int
	for _, fe := range overlapping {
		want += int(fe.Records)
	}
	if seen != want {
		t.Fatalf("engine mapped %d records, overlapping frames hold %d", seen, want)
	}
}

// TestMapFramesErrors: map and reduce errors must surface (and not
// deadlock the ordered reducer).
func TestMapFramesErrors(t *testing.T) {
	sb, _ := writeRandomFile(t, 8, 400, CurrentHeaderVersion)
	for _, workers := range []int{1, 4} {
		f := openFile(t, sb)
		i := 0
		err := MapFilesBatches([]*File{f}, MapOptions{Parallel: workers},
			func(_ int, fe FrameEntry, _ *Batch) (struct{}, error) {
				return struct{}{}, fmt.Errorf("map boom at %d", fe.Offset)
			},
			func(_ int, _ FrameEntry, _ struct{}) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "map boom") {
			t.Fatalf("j=%d: map error lost: %v", workers, err)
		}

		f = openFile(t, sb)
		err = MapFilesBatches([]*File{f}, MapOptions{Parallel: workers},
			func(_ int, _ FrameEntry, _ *Batch) (struct{}, error) { return struct{}{}, nil },
			func(_ int, _ FrameEntry, _ struct{}) error {
				i++
				if i == 2 {
					return fmt.Errorf("reduce boom")
				}
				return nil
			})
		if err == nil || !strings.Contains(err.Error(), "reduce boom") {
			t.Fatalf("j=%d: reduce error lost: %v", workers, err)
		}
	}
}

// corrupt returns a copy of the file bytes with an in-place edit.
func corrupt(b []byte, edit func([]byte)) *SeekBuffer {
	c := append([]byte(nil), b...)
	edit(c)
	return NewSeekBufferFrom(c)
}

// TestCorruptDirectoryRejected checks that impossible frame directory
// metadata is rejected at read time with a clear error rather than
// causing huge allocations or out-of-range reads.
func TestCorruptDirectoryRejected(t *testing.T) {
	sb, _ := writeRandomFile(t, 9, 300, CurrentHeaderVersion)
	base := sb.Bytes()
	f := openFile(t, sb)
	dirOff := f.FirstDir
	entryOff := dirOff + int64(dirHeaderSize(CurrentHeaderVersion))

	cases := []struct {
		name string
		edit func([]byte)
	}{
		{"frame offset past file end", func(b []byte) {
			binary.LittleEndian.PutUint64(b[entryOff:], uint64(len(b))+100)
		}},
		{"frame size past file end", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entryOff+8:], uint32(len(b))+100)
		}},
		{"record count impossible for size", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entryOff+12:], 1<<30)
		}},
		{"entry count past file end", func(b []byte) {
			binary.LittleEndian.PutUint32(b[dirOff:], 1<<28)
		}},
		{"next link past file end", func(b []byte) {
			binary.LittleEndian.PutUint64(b[dirOff+16:], uint64(len(b))+1)
		}},
	}
	for _, tc := range cases {
		cf, err := NewFile(corrupt(base, tc.edit))
		if err != nil {
			continue // rejected at header time is fine too
		}
		if _, err := cf.Scan().All(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Truncations anywhere in the directory area must error, not hang or
	// succeed partially.
	for cut := len(base) - 1; cut > len(base)-200; cut -= 7 {
		cf, err := NewFile(NewSeekBufferFrom(base[:cut]))
		if err != nil {
			continue
		}
		if _, err := cf.Scan().All(); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestDirAggregateMismatchCaughtByValidate: Validate cross-checks the
// stored version-2 aggregates against the entries.
func TestDirAggregateMismatchCaughtByValidate(t *testing.T) {
	sb, _ := writeRandomFile(t, 11, 300, CurrentHeaderVersion)
	base := sb.Bytes()
	f := openFile(t, sb)
	dirOff := f.FirstDir
	for _, field := range []int64{24, 32, 40} { // dirStart, dirEnd, dirRecords
		cf, err := NewFile(corrupt(base, func(b []byte) {
			binary.LittleEndian.PutUint64(b[dirOff+field:], 1<<40)
		}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cf.Validate(profile.Standard()); err == nil {
			t.Errorf("aggregate corruption at +%d not caught by Validate", field)
		}
	}
}

// TestWriterRejectsUnknownVersion: future header versions must be
// refused by both writer and reader.
func TestWriterRejectsUnknownVersion(t *testing.T) {
	hdr := testHeader()
	hdr.HeaderVersion = CurrentHeaderVersion + 1
	if _, err := NewWriter(NewSeekBuffer(), hdr, WriterOptions{}); err == nil {
		t.Fatal("writer accepted a future header version")
	}
	sb, _ := writeRandomFile(t, 12, 10, CurrentHeaderVersion)
	b := append([]byte(nil), sb.Bytes()...)
	// The header version field sits at byte 12 (after magic and profile
	// version).
	binary.LittleEndian.PutUint32(b[12:], CurrentHeaderVersion+5)
	if _, err := NewFile(NewSeekBufferFrom(b)); err == nil {
		t.Fatal("reader accepted a future header version")
	}
}
