package interval

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// errOverrun marks a record loop that read more records than the file
// holds: the scanner is going round a cycle instead of failing.
var errOverrun = errors.New("scanner returned more records than the file holds")

// TestBackwardLinkTerminates rewrites one directory's next link to an
// earlier directory, and to the directory itself. Directory links sit
// outside the v3 checksum, so nothing else catches the damage: every
// strict entry point must fail with an error, not loop, on every header
// version. Each call runs in its own goroutine so a regression fails
// the test instead of hanging the suite. Salvage on the same file still
// recovers every frame.
func TestBackwardLinkTerminates(t *testing.T) {
	for version := uint32(1); version <= CurrentHeaderVersion; version++ {
		sb, recs := writeRandomFile(t, 0x1b+uint64(version), 600, version)
		pristine := openFile(t, sb)
		dirs, err := pristine.Dirs()
		if err != nil {
			t.Fatal(err)
		}
		if len(dirs) < 3 {
			t.Fatalf("v%d: want ≥ 3 directories, got %d", version, len(dirs))
		}
		frames, err := pristine.Frames()
		if err != nil {
			t.Fatal(err)
		}
		first, last, _, err := pristine.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range []struct {
			name string
			off  int64
		}{{"earlier", dirs[0].Offset}, {"self", dirs[1].Offset}} {
			t.Run(fmt.Sprintf("%s/%s", versionName(version), target.name), func(t *testing.T) {
				b := append([]byte(nil), sb.Bytes()...)
				binary.LittleEndian.PutUint64(b[dirs[1].Offset+16:], uint64(target.off))
				f, err := NewFile(NewSeekBufferFrom(b))
				if err != nil {
					t.Fatal(err)
				}
				loop := func(next func(s *Scanner) error) func() error {
					return func() error {
						s := f.Scan()
						for n := 0; n <= len(recs); n++ {
							if err := next(s); err != nil {
								return err
							}
						}
						return errOverrun
					}
				}
				var rec Record
				calls := []struct {
					name string
					fn   func() error
				}{
					{"Dirs", func() error { _, err := f.Dirs(); return err }},
					{"Frames", func() error { _, err := f.Frames(); return err }},
					{"FramesInWindow", func() error { _, err := f.FramesInWindow(first, last); return err }},
					{"FrameContaining", func() error { _, _, err := f.FrameContaining(last + 1); return err }},
					{"Stats", func() error { _, _, _, err := f.Stats(); return err }},
					{"Scan.All", func() error { _, err := f.Scan().All(); return err }},
					{"ScanWindow.All", func() error { _, err := f.ScanWindow(first, last).All(); return err }},
					{"Next", loop(func(s *Scanner) error { _, err := s.Next(); return err })},
					{"NextRecordInto", loop(func(s *Scanner) error { return s.NextRecordInto(&rec) })},
					{"SeekTime", func() error { return f.Scan().SeekTime(last + 1) }},
					{"MapFilesBatches", func() error {
						return MapFilesBatches([]*File{f}, MapOptions{Parallel: 2},
							func(int, FrameEntry, *Batch) (int, error) { return 0, nil },
							func(int, FrameEntry, int) error { return nil })
					}},
					{"Validate", func() error { _, err := f.Validate(nil); return err }},
				}
				for _, c := range calls {
					done := make(chan error, 1)
					go func() { done <- c.fn() }()
					select {
					case err := <-done:
						if err == nil || errors.Is(err, io.EOF) || errors.Is(err, errOverrun) {
							t.Errorf("%s: got %v, want a directory error", c.name, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s did not return on a backward link", c.name)
					}
				}

				sv := f.Salvage()
				if sv.Report.Clean() {
					t.Errorf("salvage reports a backward link as clean: %+v", sv.Report)
				}
				got := map[int64]bool{}
				for _, fe := range sv.Frames {
					got[fe.Offset] = true
				}
				for _, fe := range frames {
					if !got[fe.Offset] {
						t.Errorf("salvage lost the frame at %d", fe.Offset)
					}
				}
			})
		}
	}
}

// TestSeekTimeWithDecodeHook: SeekTime mid-scan must drop the rest of
// the current hook-decoded frame, so the next record is the sought
// frame's first, exactly as without a hook.
func TestSeekTimeWithDecodeHook(t *testing.T) {
	sb, _ := writeRandomFile(t, 0x5e, 600, CurrentHeaderVersion)
	f := openFile(t, sb)
	f.SetFrameDecoder(func(f *File, fe FrameEntry) ([]Record, error) { return f.DecodeFrameDirect(fe) })
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	// A frame whose end time no earlier frame shares, so SeekTime to its
	// end lands on it.
	k := len(frames) / 2
	for k < len(frames) && frames[k-1].End == frames[k].End {
		k++
	}
	if k == len(frames) {
		t.Fatal("no frame with a distinct end time")
	}
	want, err := f.DecodeFrameDirect(frames[k])
	if err != nil {
		t.Fatal(err)
	}
	s := f.Scan()
	if _, err := s.NextRecord(); err != nil {
		t.Fatal(err)
	}
	if err := s.SeekTime(frames[k].End); err != nil {
		t.Fatal(err)
	}
	got, err := s.NextRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !eqRecord(got, want[0]) {
		t.Fatalf("after SeekTime(%v): got %+v, want frame %d's first record %+v", frames[k].End, got, k, want[0])
	}
}
