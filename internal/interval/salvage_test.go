package interval

import (
	"encoding/binary"
	"reflect"
	"testing"

	"tracefw/internal/profile"
)

// salvageOpen is the test entry point: NewFile + Salvage over an
// in-memory file.
func salvageOpen(t *testing.T, b []byte) (*File, *SalvageResult) {
	t.Helper()
	f, err := NewFile(NewSeekBufferFrom(b))
	if err != nil {
		t.Fatal(err)
	}
	return f, f.Salvage()
}

// recordsOf decodes the records of a set of salvaged frames.
func recordsOf(t *testing.T, f *File, frames []FrameEntry) []Record {
	t.Helper()
	var out []Record
	for _, fe := range frames {
		rs, err := f.DecodeFrameDirect(fe)
		if err != nil {
			t.Fatalf("salvaged frame at %d unreadable: %v", fe.Offset, err)
		}
		out = append(out, rs...)
	}
	return out
}

// TestSalvageCleanFile: on an undamaged file, salvage must recover
// exactly the frame list and report a clean pass, on every header
// version.
func TestSalvageCleanFile(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, recs := writeRandomFile(t, 21, 500, version)
		f := openFile(t, sb)
		want, err := f.Frames()
		if err != nil {
			t.Fatal(err)
		}
		sv := f.Salvage()
		if !reflect.DeepEqual(sv.Frames, want) {
			t.Fatalf("v%d: salvage frames differ from Frames()", version)
		}
		rep := sv.Report
		if !rep.Clean() || rep.FramesRecovered != len(want) || rep.DirsGood == 0 {
			t.Fatalf("v%d: dirty report on clean file: %+v", version, rep)
		}
		if rep.RecordsRecovered != int64(len(recs)) {
			t.Fatalf("v%d: recovered %d records, wrote %d", version, rep.RecordsRecovered, len(recs))
		}
		if rep.FirstGood != want[0].Start || rep.LastGood != want[len(want)-1].End {
			t.Fatalf("v%d: time bounds [%v %v]", version, rep.FirstGood, rep.LastGood)
		}
	}
}

// TestSalvageTruncatedTail: cutting the file mid-way must keep every
// frame that physically survived and report the tail lost.
func TestSalvageTruncatedTail(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, _ := writeRandomFile(t, 22, 600, version)
		base := sb.Bytes()
		pf := openFile(t, sb)
		all, err := pf.Frames()
		if err != nil {
			t.Fatal(err)
		}
		cut := len(base) * 2 / 3
		f, sv := salvageOpen(t, base[:cut])
		if !sv.Report.Truncated {
			t.Fatalf("v%d: truncation not reported: %+v", version, sv.Report)
		}
		// Every recovered frame must exist in the pristine file with
		// identical records, and every frame fully below the cut that is
		// reachable through intact directories must be recovered.
		pristine := map[int64]FrameEntry{}
		for _, fe := range all {
			pristine[fe.Offset] = fe
		}
		for _, fe := range sv.Frames {
			want, ok := pristine[fe.Offset]
			if !ok || want != fe {
				t.Fatalf("v%d: salvage invented frame %+v", version, fe)
			}
		}
		got := recordsOf(t, f, sv.Frames)
		wantRecs, err := pf.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 || len(got) >= len(wantRecs) {
			t.Fatalf("v%d: recovered %d of %d records from a 2/3 cut", version, len(got), len(wantRecs))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], wantRecs[i]) {
				t.Fatalf("v%d: record %d differs after salvage", version, i)
			}
		}
		if sv.Report.BytesLost == 0 {
			t.Fatalf("v%d: no bytes reported lost", version)
		}
	}
}

// TestSalvageResyncAfterBrokenLink: zeroing a middle directory header
// must lose only that directory's frames; the chain is re-found by
// scanning and later directories survive.
func TestSalvageResyncAfterBrokenLink(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, _ := writeRandomFile(t, 23, 900, version)
		base := append([]byte(nil), sb.Bytes()...)
		pf := openFile(t, sb)
		dirs, err := pf.Dirs()
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) < 4 {
			t.Fatalf("want ≥ 4 dirs, got %d", len(dirs))
		}
		victim := dirs[1]
		for i := 0; i < dirHeaderSize(version); i++ {
			base[victim.Offset+int64(i)] = 0
		}
		f, sv := salvageOpen(t, base)
		rep := sv.Report
		if rep.DirsResynced == 0 || rep.DirsDropped == 0 {
			t.Fatalf("v%d: expected a resync: %+v", version, rep)
		}
		// All frames from the untouched directories must be present.
		want := map[int64]bool{}
		for di, d := range dirs {
			if di == 1 {
				continue
			}
			for _, fe := range d.Entries {
				want[fe.Offset] = true
			}
		}
		got := map[int64]bool{}
		for _, fe := range sv.Frames {
			got[fe.Offset] = true
		}
		for off := range want {
			if !got[off] {
				t.Fatalf("v%d: frame at %d from an untouched directory lost", version, off)
			}
		}
		// And nothing from the zeroed directory may appear.
		for _, fe := range dirs[1].Entries {
			if got[fe.Offset] {
				t.Fatalf("v%d: frame of the destroyed directory recovered as-is", version)
			}
		}
		_ = f
	}
}

// TestSalvageEmptyAndTinyFiles: an empty file (one empty directory) and
// a single-frame file both salvage cleanly; garbage after the header
// never panics.
func TestSalvageEmptyAndTinyFiles(t *testing.T) {
	empty := writeTestFile(t, 0, WriterOptions{})
	_, sv := salvageOpen(t, empty.Bytes())
	if sv.Report.FramesRecovered != 0 || !sv.Report.Clean() {
		t.Fatalf("empty file: %+v", sv.Report)
	}

	one := writeTestFile(t, 1, WriterOptions{})
	f1, sv1 := salvageOpen(t, one.Bytes())
	if sv1.Report.FramesRecovered != 1 || !sv1.Report.Clean() {
		t.Fatalf("single-frame file: %+v", sv1.Report)
	}
	if got := recordsOf(t, f1, sv1.Frames); len(got) != 1 {
		t.Fatalf("single-frame file yields %d records", len(got))
	}

	// Header followed by garbage: nothing to recover, no panic.
	garbage := append([]byte(nil), empty.Bytes()...)
	for i := len(garbage) - dirHeaderSize(CurrentHeaderVersion); i < len(garbage); i++ {
		garbage[i] = 0xa5
	}
	_, sv2 := salvageOpen(t, garbage)
	if sv2.Report.FramesRecovered != 0 {
		t.Fatalf("garbage tail recovered frames: %+v", sv2.Report)
	}
}

// TestSalvageRejectsFlippedEntry: a bit flip inside a frame entry must
// drop (only) that frame — the entry no longer matches its payload.
func TestSalvageRejectsFlippedEntry(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, _ := writeRandomFile(t, 24, 400, version)
		base := append([]byte(nil), sb.Bytes()...)
		pf := openFile(t, sb)
		all, err := pf.Frames()
		if err != nil {
			t.Fatal(err)
		}
		// Flip a bit in the first directory's second entry's record count.
		entOff := pf.FirstDir + int64(dirHeaderSize(version)) + int64(entrySize(version)) + 12
		base[entOff] ^= 0x01
		_, sv := salvageOpen(t, base)
		if sv.Report.FramesDropped == 0 {
			t.Fatalf("v%d: flipped entry not dropped: %+v", version, sv.Report)
		}
		if sv.Report.FramesRecovered < len(all)-entrySizeSlack(version) {
			t.Fatalf("v%d: recovered %d of %d frames after one-entry flip",
				version, sv.Report.FramesRecovered, len(all))
		}
	}
}

// entrySizeSlack bounds how many frames a single flipped entry may cost
// per version: the flipped frame itself, plus on v3 the whole directory
// loses its metadata checksum only — entries are still salvaged
// individually, so the bound is 1 everywhere.
func entrySizeSlack(uint32) int { return 1 }

// TestRepairProducesValidFile: repairing a truncated file yields a new
// file that passes Validate and contains exactly the salvaged records.
func TestRepairProducesValidFile(t *testing.T) {
	for _, version := range []uint32{1, 2, 3, CurrentHeaderVersion} {
		sb, _ := writeRandomFile(t, 25, 500, version)
		base := sb.Bytes()
		f, sv := salvageOpen(t, base[:len(base)*3/4])
		want := recordsOf(t, f, sv.Frames)

		out := NewSeekBuffer()
		rep, err := Repair(f, sv, out, WriterOptions{FrameBytes: 512, FramesPerDir: 4})
		if err != nil {
			t.Fatal(err)
		}
		if rep.FramesWritten != len(sv.Frames) || rep.FramesSkipped != 0 {
			t.Fatalf("v%d: repair report %+v for %d frames", version, rep, len(sv.Frames))
		}
		rf, err := NewFile(NewSeekBufferFrom(out.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if rf.Header.HeaderVersion != version {
			t.Fatalf("v%d: repaired file has version %d", version, rf.Header.HeaderVersion)
		}
		if _, err := rf.Validate(profile.Standard()); err != nil {
			t.Fatalf("v%d: repaired file fails Validate: %v", version, err)
		}
		got, err := rf.Scan().All()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("v%d: repaired records differ (%d vs %d)", version, len(got), len(want))
		}
	}
}

// TestRepairEmptySalvage: repairing a file from which nothing could be
// salvaged still produces a valid (empty) interval file.
func TestRepairEmptySalvage(t *testing.T) {
	sb := writeTestFile(t, 0, WriterOptions{})
	f, sv := salvageOpen(t, sb.Bytes())
	out := NewSeekBuffer()
	if _, err := Repair(f, sv, out, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	rf, err := NewFile(NewSeekBufferFrom(out.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

// TestSalvageV3PayloadFlip: on the current (checksummed) version a bit
// flip anywhere in a frame's record bytes must drop that frame — the
// payload CRC catches what the v1/v2 layouts cannot.
func TestSalvageV3PayloadFlip(t *testing.T) {
	sb, _ := writeRandomFile(t, 26, 300, CurrentHeaderVersion)
	base := append([]byte(nil), sb.Bytes()...)
	pf := openFile(t, sb)
	all, err := pf.Frames()
	if err != nil {
		t.Fatal(err)
	}
	victim := all[len(all)/2]
	// Flip a low bit in the middle of the victim frame's payload: the
	// record still decodes, only the checksum can catch it.
	base[victim.Offset+int64(victim.Bytes)/2] ^= 0x02
	_, sv := salvageOpen(t, base)
	for _, fe := range sv.Frames {
		if fe.Offset == victim.Offset {
			t.Fatal("frame with flipped payload byte recovered")
		}
	}
	if sv.Report.FramesRecovered != len(all)-1 || sv.Report.FramesDropped != 1 {
		t.Fatalf("report %+v for %d frames", sv.Report, len(all))
	}
}

// TestSalvageBackwardLink: a next link pointing backward must not loop;
// salvage resyncs forward.
func TestSalvageBackwardLink(t *testing.T) {
	sb, _ := writeRandomFile(t, 27, 600, CurrentHeaderVersion)
	base := append([]byte(nil), sb.Bytes()...)
	pf := openFile(t, sb)
	dirs, err := pf.Dirs()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 3 {
		t.Fatal("want ≥ 3 dirs")
	}
	// Point the second directory's next link back at the first.
	binary.LittleEndian.PutUint64(base[dirs[1].Offset+16:], uint64(dirs[0].Offset))
	_, sv := salvageOpen(t, base)
	if sv.Report.FramesRecovered < len(dirs[0].Entries)+len(dirs[1].Entries) {
		t.Fatalf("backward link lost frames before it: %+v", sv.Report)
	}
	// Later directories are reachable again through the forward scan.
	got := map[int64]bool{}
	for _, fe := range sv.Frames {
		got[fe.Offset] = true
	}
	for _, fe := range dirs[2].Entries {
		if !got[fe.Offset] {
			t.Fatalf("frame at %d after backward link not re-found", fe.Offset)
		}
	}
}
