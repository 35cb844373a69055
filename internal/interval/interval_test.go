package interval

import (
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

func mkRecord(i int) Record {
	return Record{
		Type:   events.EvMPISend,
		Bebits: profile.Complete,
		Start:  clock.Time(i) * clock.Millisecond,
		Dura:   clock.Millisecond / 2,
		CPU:    uint16(i % 4),
		Node:   uint16(i % 2),
		Thread: uint16(i % 8),
		Extra:  []uint64{uint64(i + 1), 7, uint64(64 * i), uint64(i), 0, 0xdead},
	}
}

func TestRecordPayloadRoundTrip(t *testing.T) {
	cases := []Record{
		{Type: events.EvRunning, Bebits: profile.Begin, Start: -5, Dura: 10},
		mkRecord(3),
		{Type: events.EvMarkerState, Bebits: profile.Continuation, Start: 1 << 50, Dura: 0,
			CPU: 65535, Node: 65535, Thread: 511, Extra: []uint64{1, 2, 3}},
	}
	for i, want := range cases {
		got, err := DecodePayload(want.AppendPayload(nil))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Fatalf("case %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func normalize(r Record) Record {
	if len(r.Extra) == 0 {
		r.Extra = nil
	}
	return r
}

func TestFraming(t *testing.T) {
	small := make([]byte, 100)
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}
	var buf []byte
	buf = AppendFramed(buf, small)
	buf = AppendFramed(buf, big)
	buf = AppendFramed(buf, nil) // empty record uses the escape form

	p1, n1, err := NextFramed(buf)
	if err != nil || len(p1) != 100 || n1 != 101 {
		t.Fatalf("small: len=%d n=%d err=%v", len(p1), n1, err)
	}
	buf = buf[n1:]
	p2, n2, err := NextFramed(buf)
	if err != nil || len(p2) != 300 || n2 != 303 {
		t.Fatalf("big: len=%d n=%d err=%v", len(p2), n2, err)
	}
	if !reflect.DeepEqual(p2, big) {
		t.Fatal("big payload corrupted")
	}
	buf = buf[n2:]
	p3, n3, err := NextFramed(buf)
	if err != nil || len(p3) != 0 || n3 != 3 {
		t.Fatalf("empty: len=%d n=%d err=%v", len(p3), n3, err)
	}
}

func TestFramingTruncation(t *testing.T) {
	buf := AppendFramed(nil, make([]byte, 50))
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := NextFramed(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := NextFramed(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func testHeader() Header {
	return Header{
		ProfileVersion: profile.StdVersion,
		HeaderVersion:  CurrentHeaderVersion,
		FieldMask:      profile.MaskIndividual,
		Threads: []ThreadEntry{
			{Task: 0, PID: 100, SysTID: 1, Node: 0, LTID: 0, Type: events.ThreadMPI},
			{Task: -1, PID: 200, SysTID: 2, Node: 0, LTID: 1, Type: events.ThreadSystem},
			{Task: 1, PID: 101, SysTID: 3, Node: 1, LTID: 0, Type: events.ThreadMPI},
		},
		Markers: map[uint64]string{1: "Initial Phase", 2: "Compute"},
	}
}

func writeTestFile(t *testing.T, n int, opts WriterOptions) *SeekBuffer {
	t.Helper()
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
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sb
}

func TestWriteReadHeader(t *testing.T) {
	sb := writeTestFile(t, 10, WriterOptions{})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	want := testHeader()
	if f.Header.ProfileVersion != want.ProfileVersion || f.Header.HeaderVersion != want.HeaderVersion ||
		f.Header.FieldMask != want.FieldMask {
		t.Fatalf("header mismatch: %+v", f.Header)
	}
	if !reflect.DeepEqual(f.Header.Threads, want.Threads) {
		t.Fatalf("thread table mismatch:\n got %+v\nwant %+v", f.Header.Threads, want.Threads)
	}
	if !reflect.DeepEqual(f.Header.Markers, want.Markers) {
		t.Fatalf("marker table mismatch: %+v", f.Header.Markers)
	}
	if s, ok := f.MarkerString(1); !ok || s != "Initial Phase" {
		t.Fatalf("MarkerString: %q %v", s, ok)
	}
}

func TestScanRoundTrip(t *testing.T) {
	const n = 500
	sb := writeTestFile(t, n, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("scanned %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := mkRecord(i)
		if !reflect.DeepEqual(normalize(r), normalize(want)) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, r, want)
		}
	}
}

func TestMultipleDirectoriesLinked(t *testing.T) {
	sb := writeTestFile(t, 2000, WriterOptions{FrameBytes: 256, FramesPerDir: 4})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := f.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatalf("only %d directories; structure not exercised", len(dirs))
	}
	// Check link integrity both ways.
	for i, d := range dirs {
		if i > 0 && d.Prev != dirs[i-1].Offset {
			t.Fatalf("dir %d prev=%d, want %d", i, d.Prev, dirs[i-1].Offset)
		}
		if i < len(dirs)-1 && d.Next != dirs[i+1].Offset {
			t.Fatalf("dir %d next=%d, want %d", i, d.Next, dirs[i+1].Offset)
		}
	}
	if dirs[len(dirs)-1].Next != 0 {
		t.Fatal("last dir next != 0")
	}
	if dirs[0].Prev != 0 {
		t.Fatal("first dir prev != 0")
	}
	// All but the last dir are full.
	for i, d := range dirs[:len(dirs)-1] {
		if len(d.Entries) != 4 {
			t.Fatalf("dir %d has %d entries", i, len(d.Entries))
		}
	}
}

func TestFrameEntriesConsistent(t *testing.T) {
	sb := writeTestFile(t, 1000, WriterOptions{FrameBytes: 512, FramesPerDir: 8})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	fes, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for i, fe := range fes {
		recs, err := f.DecodeFrameDirect(fe)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		total += int64(len(recs))
		var lo, hi clock.Time
		lo, hi = recs[0].Start, recs[0].End()
		for _, r := range recs {
			if r.Start < lo {
				lo = r.Start
			}
			if r.End() > hi {
				hi = r.End()
			}
		}
		if fe.Start != lo || fe.End != hi {
			t.Fatalf("frame %d bounds [%v %v], records say [%v %v]", i, fe.Start, fe.End, lo, hi)
		}
	}
	if total != 1000 {
		t.Fatalf("frames held %d records", total)
	}
	// Frames must be end-time ordered.
	for i := 1; i < len(fes); i++ {
		if fes[i].End < fes[i-1].End {
			t.Fatalf("frame %d end %v < frame %d end %v", i, fes[i].End, i-1, fes[i-1].End)
		}
	}
}

func TestFrameContaining(t *testing.T) {
	sb := writeTestFile(t, 3000, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []clock.Time{0, clock.Millisecond * 700, clock.Millisecond * 2999} {
		fe, ok, err := f.FrameContaining(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("no frame for %v", probe)
		}
		if fe.End < probe {
			t.Fatalf("frame for %v ends at %v", probe, fe.End)
		}
		// It must be the *first* such frame: its predecessor (if any)
		// must end before the probe. Verify via full list.
		fes, _ := f.Frames()
		for i, other := range fes {
			if other == fe && i > 0 && fes[i-1].End >= probe {
				t.Fatalf("frame %d is not the first covering %v", i, probe)
			}
		}
	}
	if _, ok, err := f.FrameContaining(clock.Time(1) << 60); err != nil || ok {
		t.Fatalf("probe past end: ok=%v err=%v", ok, err)
	}
}

func TestStats(t *testing.T) {
	sb := writeTestFile(t, 100, WriterOptions{FrameBytes: 512})
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	first, last, n, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("records = %d", n)
	}
	if first != 0 || last != mkRecord(99).End() {
		t.Fatalf("span [%v %v]", first, last)
	}
}

func TestEndTimeOrderEnforced(t *testing.T) {
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := Record{Type: events.EvRunning, Bebits: profile.Complete, Start: 100, Dura: 10}
	r2 := Record{Type: events.EvRunning, Bebits: profile.Complete, Start: 0, Dura: 10}
	if err := w.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&r2); err == nil {
		t.Fatal("out-of-order record accepted")
	}
}

func TestUnorderedOption(t *testing.T) {
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	r1 := Record{Type: events.EvRunning, Bebits: profile.Complete, Start: 100, Dura: 10}
	r2 := Record{Type: events.EvRunning, Bebits: profile.Complete, Start: 0, Dura: 10}
	if err := w.Add(&r1); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(&r2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFile(t *testing.T) {
	sb := NewSeekBuffer()
	w, err := NewWriter(sb, testHeader(), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := NewFile(sb)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty file yielded %d records", len(recs))
	}
	_, _, n, err := f.Stats()
	if err != nil || n != 0 {
		t.Fatalf("stats on empty file: n=%d err=%v", n, err)
	}
}

func TestAddAfterCloseFails(t *testing.T) {
	sb := NewSeekBuffer()
	w, _ := NewWriter(sb, testHeader(), WriterOptions{})
	w.Close()
	r := mkRecord(0)
	if err := w.Add(&r); err == nil {
		t.Fatal("Add after Close accepted")
	}
}

func TestFileOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.ute")
	w, fp, err := CreateFile(path, testHeader(), WriterOptions{FrameBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := mkRecord(i)
		if err := w.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.Scan().All()
	if err != nil || len(recs) != 200 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestScannerEOFIsSticky(t *testing.T) {
	sb := writeTestFile(t, 3, WriterOptions{})
	f, _ := NewFile(sb)
	s := f.Scan()
	for i := 0; i < 3; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("want EOF, got %v", err)
		}
	}
}

func TestGenericAccessAgreesWithDecoder(t *testing.T) {
	// The paper's profile-driven getItemByName path and the fast decoder
	// must agree on every field of every record.
	p := profile.Standard()
	sb := writeTestFile(t, 50, WriterOptions{})
	f, _ := NewFile(sb)
	sc := f.Scan()
	for {
		payload, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		spec := p.Lookup(dec.Type, dec.Bebits)
		if spec == nil {
			t.Fatalf("no spec for %s/%s", dec.Type.Name(), dec.Bebits)
		}
		if v, _, ok := spec.Item(payload, events.FieldStart); !ok || clock.Time(v) != dec.Start {
			t.Fatalf("start mismatch: %v vs %v", v, dec.Start)
		}
		if v, _, ok := spec.Item(payload, events.FieldDura); !ok || clock.Time(v) != dec.Dura {
			t.Fatalf("dura mismatch: %v vs %v", v, dec.Dura)
		}
		if v, _, ok := spec.Item(payload, events.FieldThread); !ok || uint16(v) != dec.Thread {
			t.Fatalf("thread mismatch")
		}
		for i, name := range events.ExtraFields(dec.Type) {
			v, _, ok := spec.Item(payload, name)
			if !ok || uint64(v) != dec.Extra[i] {
				t.Fatalf("extra %q mismatch: %v vs %v", name, v, dec.Extra[i])
			}
		}
		if sz, err := spec.Size(payload); err != nil || sz != len(payload) {
			t.Fatalf("spec size %d (%v), payload %d", sz, err, len(payload))
		}
	}
}

func TestFigure5TotalBytesSent(t *testing.T) {
	// The paper's Figure 5 program: sum msgSizeSent over all records.
	p := profile.Standard()
	sb := writeTestFile(t, 100, WriterOptions{FrameBytes: 512})
	f, _ := NewFile(sb)
	var total int64
	sc := f.Scan()
	for {
		payload, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := DecodePayload(payload)
		spec := p.Lookup(dec.Type, dec.Bebits)
		if v, _, ok := spec.Item(payload, events.FieldMsgSizeSent); ok {
			total += v
		}
	}
	var want int64
	for i := 0; i < 100; i++ {
		want += int64(64 * i)
	}
	if total != want {
		t.Fatalf("total bytes sent = %d, want %d", total, want)
	}
}

func TestSeekBuffer(t *testing.T) {
	sb := NewSeekBuffer()
	sb.Write([]byte("hello world"))
	if _, err := sb.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	sb.Write([]byte("WORLD"))
	if string(sb.Bytes()) != "hello WORLD" {
		t.Fatalf("buffer: %q", sb.Bytes())
	}
	if _, err := sb.Seek(-5, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(sb, got); err != nil || string(got) != "WORLD" {
		t.Fatalf("read %q err %v", got, err)
	}
	if _, err := sb.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if _, err := sb.Seek(0, 99); err == nil {
		t.Fatal("bad whence accepted")
	}
	if _, err := sb.Seek(100, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if n, err := sb.Read(make([]byte, 4)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("read past end: n=%d err=%v", n, err)
	}
}

func TestQuickFramedRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		if len(payload) > 4000 {
			payload = payload[:4000]
		}
		buf := AppendFramed(nil, payload)
		got, n, err := NextFramed(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return string(got) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(ty uint16, bb uint8, start, dura int64, cpu, node, thread uint16, extra []uint64) bool {
		if len(extra) > 16 {
			extra = extra[:16]
		}
		r := Record{
			Type: events.Type(ty), Bebits: profile.Bebits(bb % 4),
			Start: clock.Time(start), Dura: clock.Time(dura),
			CPU: cpu, Node: node, Thread: thread, Extra: extra,
		}
		got, err := DecodePayload(r.AppendPayload(nil))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRecordRoundTrip(t *testing.T) {
	// MPI_Waitall records carry a trailing vector field; both the typed
	// decoder and the profile-driven accessor must read it back.
	r := Record{
		Type:   events.EvMPIWaitall,
		Bebits: profile.Complete,
		Start:  clock.Second,
		Dura:   clock.Millisecond,
		Extra:  []uint64{3, 0xabc},              // count, addr
		Vec:    []uint64{1, 7, 512, 0, 8, 1024}, // two (peer, seqno, bytes) triples
	}
	payload := r.AppendPayload(nil)
	got, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Extra, r.Extra) || !reflect.DeepEqual(got.Vec, r.Vec) {
		t.Fatalf("round trip: %+v", got)
	}
	// Profile-driven access: the vector field is visible by name.
	spec := profile.Standard().Lookup(events.EvMPIWaitall, profile.Complete)
	if spec == nil {
		t.Fatal("no spec")
	}
	if !spec.IsVector(events.FieldRecvEnvs) {
		t.Fatal("recvEnvs not a vector in the spec")
	}
	elems, n, ok := spec.Vector(payload, events.FieldRecvEnvs)
	if !ok || n != 6 || len(elems) != 48 {
		t.Fatalf("Vector: n=%d len=%d ok=%v", n, len(elems), ok)
	}
	if v, _, ok := spec.Item(payload, events.FieldCount); !ok || v != 3 {
		t.Fatalf("count = %v %v", v, ok)
	}
	if sz, err := spec.Size(payload); err != nil || sz != len(payload) {
		t.Fatalf("Size = %d (%v), payload %d", sz, err, len(payload))
	}
	// Empty vector still round-trips (non-final pieces).
	r.Vec = nil
	got, err = DecodePayload(r.AppendPayload(nil))
	if err != nil || len(got.Vec) != 0 {
		t.Fatalf("empty vector: %+v err=%v", got, err)
	}
}
