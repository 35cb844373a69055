package interval

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// writeTempFile puts an in-memory trace on disk for the path-based API.
func writeTempFile(t *testing.T, sb *SeekBuffer) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "trace.ute")
	if err := os.WriteFile(p, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOpenMatchesNewFile pins the two entry points to one reader: Open
// on a path and NewFile on the same bytes see exactly the same records,
// and Open(WithSalvage) of an undamaged file recovers every frame.
func TestOpenMatchesNewFile(t *testing.T) {
	sb, recs := writeRandomFile(t, 11, 400, CurrentHeaderVersion)
	p := writeTempFile(t, sb)

	f1, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f1.Close()
	f2, err := NewFile(NewSeekBufferFrom(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	all1, err := f1.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	all2, err := f2.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(all1, all2) || len(all1) != len(recs) {
		t.Fatalf("Open and NewFile scans disagree (%d vs %d records)", len(all1), len(all2))
	}

	var res SalvageResult
	f3, err := Open(p, WithSalvage(&res))
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	frames, err := f1.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() {
		t.Fatalf("salvage of an undamaged file reports damage: %+v", res.Report)
	}
	if len(res.Frames) != len(frames) {
		t.Fatalf("Open(WithSalvage) recovered %d frames, the directory lists %d", len(res.Frames), len(frames))
	}
}

// TestWithVerifyChecksums flips one payload byte on a v3 file (fixed-
// size record encoding, so the damage stays decodable) and checks that
// the default Open rejects the frame while WithVerifyChecksums(false)
// reads through it.
func TestWithVerifyChecksums(t *testing.T) {
	sb, _ := writeRandomFile(t, 12, 300, 3)
	clean := openFile(t, sb)
	frames, err := clean.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames")
	}
	damaged := append([]byte(nil), sb.Bytes()...)
	damaged[frames[0].Offset+2] ^= 0xff

	f, err := NewFile(NewSeekBufferFrom(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecodeFrame(frames[0]); err == nil {
		t.Fatal("default open decoded a frame with a bad payload checksum")
	}

	f2, err := NewFile(NewSeekBufferFrom(damaged), WithVerifyChecksums(false))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := f2.DecodeFrame(frames[0])
	if err != nil {
		t.Fatalf("WithVerifyChecksums(false) still fails the read: %v", err)
	}
	if len(recs) != int(frames[0].Records) {
		t.Fatalf("got %d records, frame claims %d", len(recs), frames[0].Records)
	}

	// The option must not bend salvage: its own checksum pass still
	// rejects the damaged frame.
	var res SalvageResult
	if _, err := NewFile(NewSeekBufferFrom(damaged), WithVerifyChecksums(false), WithSalvage(&res)); err != nil {
		t.Fatal(err)
	}
	if res.Report.Clean() {
		t.Fatal("salvage missed the payload damage despite WithVerifyChecksums(false)")
	}
}

// TestCloseIdempotent: Close is safe to call twice and from many
// goroutines at once, and afterwards every read path fails with
// ErrClosed rather than a nil-map panic or an os.ErrClosed leak.
func TestCloseIdempotent(t *testing.T) {
	sb, _ := writeRandomFile(t, 13, 300, CurrentHeaderVersion)
	p := writeTempFile(t, sb)
	f, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}

	if _, err := f.ReadFrame(frames[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrame after Close: %v, want ErrClosed", err)
	}
	if _, err := f.ReadFrameAt(frames[0], nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrameAt after Close: %v, want ErrClosed", err)
	}
	if _, err := f.DecodeFrameDirect(frames[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("DecodeFrameDirect after Close: %v, want ErrClosed", err)
	}
	if _, err := f.Scan().All(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close: %v, want ErrClosed", err)
	}
}

// TestCloseMidScanIsErrClosed closes the file while a scan is in
// progress on another goroutine: the scan must end with ErrClosed, not
// a raw *os.PathError or a crash.
func TestCloseMidScanIsErrClosed(t *testing.T) {
	sb, _ := writeRandomFile(t, 14, 2000, CurrentHeaderVersion)
	p := writeTempFile(t, sb)
	f, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		s := f.Scan()
		var n int
		for {
			_, err := s.NextRecord()
			if err != nil {
				done <- err
				return
			}
			n++
			if n == 1 {
				close(started)
			}
		}
	}()
	<-started
	f.Close()
	err = <-done
	// The race is real: the scan may finish cleanly (io.EOF surfaces as
	// a nil-error stop inside All; NextRecord returns io.EOF) before the
	// close lands. Anything else must be ErrClosed.
	if !errors.Is(err, ErrClosed) && !errors.Is(err, io.EOF) {
		t.Fatalf("scan ended with %v, want ErrClosed or EOF", err)
	}
}

// TestPreloadedMetadataOps: after Preload, metadata operations work on
// a closed file too (they touch no I/O) and agree with the unpreloaded
// answers.
func TestPreloadedMetadataOps(t *testing.T) {
	sb, _ := writeRandomFile(t, 15, 900, CurrentHeaderVersion)
	f := openFile(t, sb)
	framesBefore, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	s0, e0, n0, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(); err != nil {
		t.Fatal(err)
	}
	if !f.Preloaded() {
		t.Fatal("Preloaded() false after Preload")
	}
	framesAfter, err := f.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(framesBefore, framesAfter) {
		t.Fatal("Preload changed the frame list")
	}
	s1, e1, n1, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s0 != s1 || e0 != e1 || n0 != n1 {
		t.Fatalf("Preload changed Stats: [%v %v] %d vs [%v %v] %d", s0, e0, n0, s1, e1, n1)
	}
	// Window metadata from the resident chain.
	fes, err := f.FramesInWindow(s1, e1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fes) != len(framesAfter) {
		t.Fatalf("full-run window returns %d frames, file has %d", len(fes), len(framesAfter))
	}
	if _, ok, err := f.FrameContaining(s1); err != nil || !ok {
		t.Fatalf("FrameContaining(start) after Preload: ok=%v err=%v", ok, err)
	}
}
