package interval

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"tracefw/internal/clock"
)

// FrameEntry describes one frame (paper §2.3.3): "Each entry contains a
// frame pointer indicating the starting offset of the frame, the size of
// the frame, the number of records in the frame, and the start time and
// end time of the frame."
type FrameEntry struct {
	Offset  int64
	Bytes   uint32
	Records uint32
	Start   clock.Time
	End     clock.Time
	// Sum is the CRC-32C of the frame's record bytes, stored by header
	// version 3; zero on older files. Frame reads verify it.
	Sum uint32
}

// FrameDir is one frame directory with its position and links.
type FrameDir struct {
	Offset int64
	Prev   int64 // 0 = none
	Next   int64 // 0 = none
	// Start/End/Records aggregate the directory's frames. Header
	// version 2 stores them in the directory header so window queries
	// can skip a directory without reading its entries; for version-1
	// files they are reconstructed from the entries when the directory
	// is read.
	Start   clock.Time
	End     clock.Time
	Records int64
	Entries []FrameEntry
	// sum is the stored v3 metadata checksum, verified once the entry
	// table has been read.
	sum uint32
}

// Overlaps reports whether the directory's frames can intersect the
// window [lo, hi]. An empty directory overlaps nothing.
func (d *FrameDir) Overlaps(lo, hi clock.Time) bool {
	return d.Records > 0 && d.End >= lo && d.Start <= hi
}

// File provides random and sequential access to an interval file.
type File struct {
	Header   Header
	FirstDir int64
	// Size is the total file size, used to bound every offset and length
	// read from the file so corrupted metadata cannot trigger huge
	// allocations. For a live-tail snapshot (WithLiveTail) it is the
	// sealed prefix length, which may be shorter than the on-disk file.
	Size int64

	// live marks a WithLiveTail snapshot: a directory whose next link
	// equals Size is the (speculative) end of the chain, and a chain
	// that would start exactly at Size is an empty trace. Both
	// conditions are impossible on a closed file, where the final link
	// has been patched to 0.
	live bool

	r      io.ReadSeeker
	ra     io.ReaderAt // non-nil when r supports ReadAt (concurrent frame reads)
	closer io.Closer
	// closed flips once on the first Close; every read path checks it so
	// a closed File fails with ErrClosed instead of an os-level error
	// from a dead handle.
	closed atomic.Bool
	// verifySums gates per-frame payload checksum verification (v3+);
	// set from WithVerifyChecksums at open, default true. Salvage does
	// not consult it.
	verifySums bool
	// hook, when non-nil, intercepts frame decodes (DecodeFrame, the
	// map-reduce engine, scanners): serving layers use it to answer from
	// a decoded-frame cache. Set it before the File is shared between
	// goroutines.
	hook FrameDecoder
	// dirs/dirAt hold the preloaded directory chain (Preload): when
	// non-nil, every directory-metadata operation is answered from
	// memory without touching r's seek offset.
	dirs  []*FrameDir
	dirAt map[int64]*FrameDir
	// decoded counts frame payload reads; tests use it to assert that
	// window queries touch only the frames overlapping the window.
	decoded atomic.Int64
	// pyr is the attached summary pyramid (AttachPyramid, or the
	// sidecar auto-load in Open); nil means SummarizeWindow always
	// scans. Set before the File is shared between goroutines.
	pyr *Pyramid
}

// ErrClosed is returned by reads on a File after Close. It is distinct
// from the underlying os error so servers that close traces under load
// can recognize the condition.
var ErrClosed = errors.New("interval: file already closed")

// FrameDecoder supplies the decoded records of a frame, typically from
// a cache shared between readers of the same file. A decoder's miss
// path must call DecodeFrameDirect (never DecodeFrame, which would
// recurse). Records handed out by a decoder are shared: callers must
// treat them, including their Extra/Vec slices, as read-only.
type FrameDecoder func(f *File, fe FrameEntry) ([]Record, error)

// SetFrameDecoder installs (or, with nil, removes) the frame-decode
// hook. It must be called before the File is used from multiple
// goroutines; the field is read without synchronization.
func (f *File) SetFrameDecoder(h FrameDecoder) { f.hook = h }

// DecodedFrames returns how many frame payloads have been read from the
// file so far (every ReadFrame/Scanner frame load counts once).
func (f *File) DecodedFrames() int64 { return f.decoded.Load() }

// readFileHeader parses the header, thread table, and marker table (the
// paper's readHeader), leaving the file positioned at the first frame
// directory. NewFile and Open wrap it with option handling.
func readFileHeader(r io.ReadSeeker) (*File, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, err
	}
	var fixed [fixedHeaderSize]byte
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("interval: reading header: %w", err)
	}
	if string(fixed[:8]) != fileMagic {
		return nil, fmt.Errorf("interval: bad magic %q", fixed[:8])
	}
	f := &File{r: r, Size: size, verifySums: true}
	f.Header.ProfileVersion = binary.LittleEndian.Uint32(fixed[8:])
	f.Header.HeaderVersion = binary.LittleEndian.Uint32(fixed[12:])
	nThreads := binary.LittleEndian.Uint32(fixed[16:])
	f.Header.FieldMask = binary.LittleEndian.Uint16(fixed[20:])
	nMarkers := binary.LittleEndian.Uint32(fixed[24:])

	if f.Header.HeaderVersion > CurrentHeaderVersion {
		return nil, fmt.Errorf("interval: unsupported header version %d (current is %d)", f.Header.HeaderVersion, CurrentHeaderVersion)
	}
	if int64(nThreads)*threadEntrySize > size {
		return nil, fmt.Errorf("interval: thread table (%d entries) exceeds file size %d", nThreads, size)
	}
	// Each marker needs at least its 10-byte fixed header; bounding the
	// count up front turns a corrupt header into a clear error instead
	// of a long sequence of short reads.
	if int64(nThreads)*threadEntrySize+int64(nMarkers)*10 > size {
		return nil, fmt.Errorf("interval: marker table (%d entries) exceeds file size %d", nMarkers, size)
	}
	tt := make([]byte, int(nThreads)*threadEntrySize)
	if _, err := io.ReadFull(r, tt); err != nil {
		return nil, fmt.Errorf("interval: reading thread table: %w", err)
	}
	for i := 0; i < int(nThreads); i++ {
		b := tt[i*threadEntrySize:]
		f.Header.Threads = append(f.Header.Threads, ThreadEntry{
			Task:   int32(binary.LittleEndian.Uint32(b[0:])),
			PID:    binary.LittleEndian.Uint64(b[4:]),
			SysTID: binary.LittleEndian.Uint64(b[12:]),
			Node:   binary.LittleEndian.Uint16(b[20:]),
			LTID:   binary.LittleEndian.Uint16(b[22:]),
			Type:   b[24],
		})
	}
	f.Header.Markers = make(map[uint64]string, nMarkers)
	for i := 0; i < int(nMarkers); i++ {
		var mh [10]byte
		if _, err := io.ReadFull(r, mh[:]); err != nil {
			return nil, fmt.Errorf("interval: reading marker table: %w", err)
		}
		id := binary.LittleEndian.Uint64(mh[0:])
		sl := int(binary.LittleEndian.Uint16(mh[8:]))
		s := make([]byte, sl)
		if _, err := io.ReadFull(r, s); err != nil {
			return nil, fmt.Errorf("interval: reading marker string: %w", err)
		}
		f.Header.Markers[id] = string(s)
	}
	pos, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	f.FirstDir = pos
	if ra, ok := r.(io.ReaderAt); ok {
		f.ra = ra
	}
	if c, ok := r.(io.Closer); ok {
		f.closer = c
	}
	return f, nil
}

// Close closes the underlying file if the File owns one. It is
// idempotent and safe to call concurrently with reads: the first call
// closes, every later call returns nil, and reads that race with or
// follow Close fail with ErrClosed.
func (f *File) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// closedErr maps a read error on a closed (or concurrently closing)
// File to ErrClosed so callers see one distinct sentinel instead of an
// os-level error from a dead handle.
func (f *File) closedErr(err error) error {
	if f.closed.Load() || errors.Is(err, os.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Preload reads the whole directory chain once and keeps it in memory.
// Afterwards every directory-metadata operation — Dirs, Frames,
// FramesInWindow, FrameContaining, Stats, and scanner positioning — is
// answered from memory without touching the underlying reader or its
// seek offset, which (together with positioned frame reads, see
// ConcurrentReads) makes the File safe for concurrent window queries.
// Long-running serving layers call it at registration time.
func (f *File) Preload() error {
	dirs, err := f.Dirs()
	if err != nil {
		return err
	}
	at := make(map[int64]*FrameDir, len(dirs))
	for _, d := range dirs {
		at[d.Offset] = d
	}
	f.dirs, f.dirAt = dirs, at
	return nil
}

// Preloaded reports whether the directory chain is resident in memory.
func (f *File) Preloaded() bool { return f.dirs != nil }

// MarkerString retrieves a marker string by identifier (the paper's
// marker-table lookup routine).
func (f *File) MarkerString(id uint64) (string, bool) {
	s, ok := f.Header.Markers[id]
	return s, ok
}

// ReadFrameDir reads the frame directory at offset (the paper's
// readFrameDir when given FirstDir). The paper points out a user need
// not read any directory except the first: the Prev/Next links and the
// Scanner handle the rest.
func (f *File) ReadFrameDir(offset int64) (*FrameDir, error) {
	d, n, err := f.readDirHeader(offset)
	if err != nil {
		return nil, err
	}
	if err := f.readDirEntries(d, n); err != nil {
		return nil, err
	}
	return d, nil
}

// readDirHeader reads only a directory's fixed header: entry count,
// links, and (header version 2) the aggregate bounds. Window queries
// use it to decide whether a directory's entries are worth reading at
// all. The entry count is returned for readDirEntries; for version-1
// files the aggregate fields stay zero until the entries are read.
func (f *File) readDirHeader(offset int64) (*FrameDir, int, error) {
	if f.dirAt != nil {
		// Preloaded chain: the directory (entries included) is resident;
		// nothing touches the reader or its seek offset.
		if d, ok := f.dirAt[offset]; ok {
			return d, len(d.Entries), nil
		}
		return nil, 0, fmt.Errorf("interval: no preloaded directory at offset %d", offset)
	}
	if f.closed.Load() {
		return nil, 0, ErrClosed
	}
	if f.live && offset == f.Size {
		// Live snapshot taken before the first directory sealed (or, on
		// a later walk, a FirstDir that still points past the sealed
		// prefix): synthesize the empty end-of-chain directory the
		// writer has not flushed yet.
		return &FrameDir{Offset: offset}, 0, nil
	}
	hdrSize := dirHeaderSize(f.Header.HeaderVersion)
	if _, err := f.r.Seek(offset, io.SeekStart); err != nil {
		return nil, 0, f.closedErr(err)
	}
	var hb [dirHeaderV3Size]byte
	h := hb[:hdrSize]
	if _, err := io.ReadFull(f.r, h); err != nil {
		return nil, 0, f.closedErr(fmt.Errorf("interval: reading frame directory at %d: %w", offset, err))
	}
	d := &FrameDir{
		Offset: offset,
		Prev:   int64(binary.LittleEndian.Uint64(h[8:])),
		Next:   int64(binary.LittleEndian.Uint64(h[16:])),
	}
	if f.live && d.Next == f.Size {
		// The writer's speculative next link: the following directory
		// has not sealed yet, so this is the end of the chain.
		d.Next = 0
	}
	if f.Header.HeaderVersion >= 3 && binary.LittleEndian.Uint32(h[4:]) != dirMagic {
		return nil, 0, fmt.Errorf("interval: directory at %d has bad magic %#x", offset, binary.LittleEndian.Uint32(h[4:]))
	}
	if d.Next < 0 || d.Next > f.Size || d.Prev < 0 || d.Prev > f.Size {
		return nil, 0, fmt.Errorf("interval: directory at %d has out-of-file links (prev %d, next %d)", offset, d.Prev, d.Next)
	}
	n := int(binary.LittleEndian.Uint32(h[0:]))
	if offset+int64(hdrSize)+int64(n)*int64(entrySize(f.Header.HeaderVersion)) > f.Size {
		return nil, 0, fmt.Errorf("interval: directory at %d claims %d entries beyond file size", offset, n)
	}
	if f.Header.HeaderVersion >= 2 {
		d.Start = clock.Time(binary.LittleEndian.Uint64(h[24:]))
		d.End = clock.Time(binary.LittleEndian.Uint64(h[32:]))
		d.Records = int64(binary.LittleEndian.Uint64(h[40:]))
		if d.Records < 0 || d.Records*minRecordBytes(f.Header.HeaderVersion) > f.Size {
			return nil, 0, fmt.Errorf("interval: directory at %d claims %d records in a %d-byte file", offset, d.Records, f.Size)
		}
	}
	if f.Header.HeaderVersion >= 3 {
		d.sum = binary.LittleEndian.Uint32(h[48:])
		if n == 0 && dirChecksum(0, d.Start, d.End, uint64(d.Records), nil) != d.sum {
			return nil, 0, fmt.Errorf("interval: directory at %d fails metadata checksum", offset)
		}
	}
	return d, n, nil
}

// readDirEntries reads and validates the n frame entries following a
// directory header. For version-1 files it also reconstructs the
// directory's aggregate bounds from the entries (the lazy path for old
// files).
func (f *File) readDirEntries(d *FrameDir, n int) error {
	if n == 0 || f.dirAt != nil {
		// Preloaded directories carry their entries already.
		return nil
	}
	if f.closed.Load() {
		return ErrClosed
	}
	ver := f.Header.HeaderVersion
	esz := entrySize(ver)
	entOff := d.Offset + int64(dirHeaderSize(ver))
	if _, err := f.r.Seek(entOff, io.SeekStart); err != nil {
		return err
	}
	eb := make([]byte, n*esz)
	if _, err := io.ReadFull(f.r, eb); err != nil {
		return f.closedErr(fmt.Errorf("interval: reading %d frame entries: %w", n, err))
	}
	if ver >= 3 {
		if dirChecksum(uint32(n), d.Start, d.End, uint64(d.Records), eb) != d.sum {
			return fmt.Errorf("interval: directory at %d fails metadata checksum", d.Offset)
		}
	}
	d.Entries = make([]FrameEntry, 0, n)
	for i := 0; i < n; i++ {
		b := eb[i*esz:]
		fe := FrameEntry{
			Offset:  int64(binary.LittleEndian.Uint64(b[0:])),
			Bytes:   binary.LittleEndian.Uint32(b[8:]),
			Records: binary.LittleEndian.Uint32(b[12:]),
			Start:   clock.Time(binary.LittleEndian.Uint64(b[16:])),
			End:     clock.Time(binary.LittleEndian.Uint64(b[24:])),
		}
		if ver >= 3 {
			fe.Sum = binary.LittleEndian.Uint32(b[32:])
		}
		// Reject corrupt entries here so every consumer (scanners, the
		// map-reduce engine, record preallocation from Records) sees
		// only frames that can physically exist in this file.
		if fe.Offset < 0 || fe.Offset > f.Size || int64(fe.Bytes) > f.Size || fe.Offset+int64(fe.Bytes) > f.Size {
			return fmt.Errorf("interval: directory at %d entry %d: frame at %d (%d bytes) exceeds file size %d", d.Offset, i, fe.Offset, fe.Bytes, f.Size)
		}
		if int64(fe.Records)*minRecordBytes(ver) > int64(fe.Bytes) {
			return fmt.Errorf("interval: directory at %d entry %d: %d records cannot fit in %d bytes", d.Offset, i, fe.Records, fe.Bytes)
		}
		d.Entries = append(d.Entries, fe)
	}
	if f.Header.HeaderVersion < 2 {
		d.Start, d.End, d.Records = d.Entries[0].Start, d.Entries[0].End, 0
		for _, fe := range d.Entries {
			if fe.Start < d.Start {
				d.Start = fe.Start
			}
			if fe.End > d.End {
				d.End = fe.End
			}
			d.Records += int64(fe.Records)
		}
	}
	return nil
}

// Dirs returns every frame directory in file order. A corrupted link
// that revisits an offset is reported as an error rather than looping.
// After Preload the resident chain is returned directly; callers must
// treat it as read-only.
func (f *File) Dirs() ([]*FrameDir, error) {
	if f.dirs != nil {
		return f.dirs, nil
	}
	var dirs []*FrameDir
	seen := map[int64]bool{}
	off := f.FirstDir
	for {
		if seen[off] {
			return nil, fmt.Errorf("interval: frame directory cycle at offset %d", off)
		}
		seen[off] = true
		d, err := f.ReadFrameDir(off)
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
		if d.Next == 0 {
			return dirs, nil
		}
		off = d.Next
	}
}

// Frames returns every frame entry in file order.
func (f *File) Frames() ([]FrameEntry, error) {
	dirs, err := f.Dirs()
	if err != nil {
		return nil, err
	}
	var fes []FrameEntry
	for _, d := range dirs {
		fes = append(fes, d.Entries...)
	}
	return fes, nil
}

// FramesInWindow returns the frame entries whose time range overlaps
// [lo, hi], in file order, using only directory metadata. On version-2
// files, directories whose aggregate bounds miss the window entirely
// are skipped without even reading their entry tables.
func (f *File) FramesInWindow(lo, hi clock.Time) ([]FrameEntry, error) {
	var out []FrameEntry
	v2 := f.Header.HeaderVersion >= 2
	seen := map[int64]bool{}
	off := f.FirstDir
	for {
		if seen[off] {
			return nil, fmt.Errorf("interval: frame directory cycle at offset %d", off)
		}
		seen[off] = true
		d, n, err := f.readDirHeader(off)
		if err != nil {
			return nil, err
		}
		if !(v2 && n > 0 && !d.Overlaps(lo, hi)) {
			if err := f.readDirEntries(d, n); err != nil {
				return nil, err
			}
			for _, fe := range d.Entries {
				if fe.End >= lo && fe.Start <= hi {
					out = append(out, fe)
				}
			}
		}
		if d.Next == 0 {
			return out, nil
		}
		off = d.Next
	}
}

// ReadFrame loads a frame's raw record bytes.
func (f *File) ReadFrame(fe FrameEntry) ([]byte, error) {
	return f.readFrameInto(fe, nil)
}

// ReadFrameAt loads a frame's raw record bytes with a positioned read,
// never touching the file's seek offset — safe for concurrent use from
// multiple goroutines. It requires the underlying reader to implement
// io.ReaderAt (os.File and SeekBuffer both do); callers that need a
// fallback should check ConcurrentReads first.
func (f *File) ReadFrameAt(fe FrameEntry, buf []byte) ([]byte, error) {
	if f.ra == nil {
		return nil, errors.New("interval: underlying reader does not support ReadAt")
	}
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if fe.Offset < 0 || int64(fe.Bytes) > f.Size || fe.Offset+int64(fe.Bytes) > f.Size {
		return nil, fmt.Errorf("interval: frame at %d (%d bytes) exceeds file size %d", fe.Offset, fe.Bytes, f.Size)
	}
	if cap(buf) < int(fe.Bytes) {
		buf = make([]byte, fe.Bytes)
	} else {
		buf = buf[:fe.Bytes]
	}
	if _, err := f.ra.ReadAt(buf, fe.Offset); err != nil {
		return nil, f.closedErr(fmt.Errorf("interval: reading frame at %d: %w", fe.Offset, err))
	}
	if err := f.checkFrameSum(fe, buf); err != nil {
		return nil, err
	}
	f.decoded.Add(1)
	return buf, nil
}

// checkFrameSum verifies a frame's stored payload checksum on version-3
// files; older versions store none, and WithVerifyChecksums(false)
// skips the pass (Salvage runs its own unconditional check).
func (f *File) checkFrameSum(fe FrameEntry, buf []byte) error {
	if f.verifySums && f.Header.HeaderVersion >= 3 && crc32.Checksum(buf, crcTable) != fe.Sum {
		return fmt.Errorf("interval: frame at %d fails payload checksum", fe.Offset)
	}
	return nil
}

// ConcurrentReads reports whether the file supports ReadFrameAt, i.e.
// whether the parallel map-reduce engine can decode frames from worker
// goroutines.
func (f *File) ConcurrentReads() bool { return f.ra != nil }

// readFrameInto loads a frame's raw record bytes into buf's backing
// array when it is large enough, allocating otherwise. The Scanner uses
// it to reuse one pooled buffer across all frames of a scan.
func (f *File) readFrameInto(fe FrameEntry, buf []byte) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if fe.Offset < 0 || int64(fe.Bytes) > f.Size || fe.Offset+int64(fe.Bytes) > f.Size {
		return nil, fmt.Errorf("interval: frame at %d (%d bytes) exceeds file size %d", fe.Offset, fe.Bytes, f.Size)
	}
	if _, err := f.r.Seek(fe.Offset, io.SeekStart); err != nil {
		return nil, f.closedErr(err)
	}
	if cap(buf) < int(fe.Bytes) {
		buf = make([]byte, fe.Bytes)
	} else {
		buf = buf[:fe.Bytes]
	}
	if _, err := io.ReadFull(f.r, buf); err != nil {
		return nil, f.closedErr(fmt.Errorf("interval: reading frame at %d: %w", fe.Offset, err))
	}
	if err := f.checkFrameSum(fe, buf); err != nil {
		return nil, err
	}
	f.decoded.Add(1)
	return buf, nil
}

// DecodeFrame returns fe's decoded records through the frame-decode
// hook when one is installed (a cache hit costs no read and no decode),
// falling back to DecodeFrameDirect. The result may be shared with
// other callers and must be treated as read-only.
func (f *File) DecodeFrame(fe FrameEntry) ([]Record, error) {
	if f.hook != nil {
		return f.hook(f, fe)
	}
	return f.DecodeFrameDirect(fe)
}

// DecodeFrameDirect reads and decodes fe, bypassing the frame-decode
// hook — it is the miss path a FrameDecoder itself must use. The frame
// is decoded into a pooled Batch and copied out with Batch.Records, so
// the result owns its memory and may be retained. The read is
// positioned (never moving the file's seek offset) whenever the
// underlying reader supports it, so concurrent calls are safe on such
// files.
func (f *File) DecodeFrameDirect(fe FrameEntry) ([]Record, error) {
	b := batchPool.Get().(*Batch)
	defer batchPool.Put(b)
	if err := f.decodeFrameBatchDirect(fe, b); err != nil {
		return nil, err
	}
	return b.Records(), nil
}

// FrameContaining locates the first frame whose time range covers t,
// using only directory metadata — the fast seek the format exists for.
// ok is false when t is after the last frame.
func (f *File) FrameContaining(t clock.Time) (FrameEntry, bool, error) {
	v2 := f.Header.HeaderVersion >= 2
	off := f.FirstDir
	for {
		d, n, err := f.readDirHeader(off)
		if err != nil {
			return FrameEntry{}, false, err
		}
		if v2 && n > 0 && d.End < t {
			// Aggregate bounds say every frame here ends before t: follow
			// the next link without reading the entry table.
			if d.Next == 0 {
				return FrameEntry{}, false, nil
			}
			off = d.Next
			continue
		}
		if err := f.readDirEntries(d, n); err != nil {
			return FrameEntry{}, false, err
		}
		if n := len(d.Entries); n > 0 && d.Entries[n-1].End >= t {
			// Frames are end-time ordered: binary search the first frame
			// with End >= t inside this directory.
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if d.Entries[mid].End >= t {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return d.Entries[lo], true, nil
		}
		if d.Next == 0 {
			return FrameEntry{}, false, nil
		}
		off = d.Next
	}
}

// Stats aggregates frame-directory information: total elapsed time and
// total record count (paper §2.4's aggregate routines). On version-2
// files only the directory headers are read — the per-directory
// aggregates answer the question without touching any entry table.
func (f *File) Stats() (first, last clock.Time, records int64, err error) {
	if f.Header.HeaderVersion >= 2 {
		seen := map[int64]bool{}
		off := f.FirstDir
		any := false
		for {
			if seen[off] {
				return 0, 0, 0, fmt.Errorf("interval: frame directory cycle at offset %d", off)
			}
			seen[off] = true
			d, n, derr := f.readDirHeader(off)
			if derr != nil {
				return 0, 0, 0, derr
			}
			if n > 0 {
				if !any || d.Start < first {
					first = d.Start
				}
				if d.End > last {
					last = d.End
				}
				records += d.Records
				any = true
			}
			if d.Next == 0 {
				return first, last, records, nil
			}
			off = d.Next
		}
	}
	fes, err := f.Frames()
	if err != nil {
		return 0, 0, 0, err
	}
	if len(fes) == 0 {
		return 0, 0, 0, nil
	}
	first = fes[0].Start
	for _, fe := range fes {
		if fe.Start < first {
			first = fe.Start
		}
		if fe.End > last {
			last = fe.End
		}
		records += int64(fe.Records)
	}
	return first, last, records, nil
}

// Scanner iterates records sequentially across all frames and
// directories, hiding the structure (the paper's getInterval loop).
type Scanner struct {
	f       *File
	dir     *FrameDir
	frame   int
	buf     []byte
	err     error
	started bool
	// win restricts the scan to frames overlapping [winLo, winHi];
	// version-2 directories whose aggregate bounds miss the window are
	// skipped without reading their entry tables.
	win          bool
	winLo, winHi clock.Time
	// ctx, when non-nil, aborts the scan between frames once it is
	// cancelled (SetContext / ScanWindowCtx). Cancellation is checked
	// per frame, not per record, so a cancelled long scan stops within
	// one frame's worth of records.
	ctx context.Context
	// recs/recIdx serve frames obtained from the file's frame-decode
	// hook (cached, already-decoded records); buf stays empty then.
	recs   []Record
	recIdx int
	// frameBuf is the pooled backing buffer the current frame was read
	// into; it is returned to the pool once the scan terminates.
	frameBuf *[]byte
	// cur decodes the current frame on v4 files (dictionary and base
	// start are frame-local); buf mirrors cur.buf there so the
	// "frame exhausted" check is shared across versions.
	cur frameCursor
	// arena backs the Extra/Vec slices of records returned by NextRecord
	// and All, replacing one allocation per record with one per ~4096
	// field values. Chunks are never reused, so the records stay valid
	// after the scan.
	arena u64Arena
	// scratch/pbuf serve Next on v4 files: the record is decoded into
	// scratch and re-encoded fixed-width into pbuf.
	scratch Record
	pbuf    []byte
}

// Scan returns a sequential record scanner positioned before the first
// record.
func (f *File) Scan() *Scanner { return &Scanner{f: f} }

// ScanWindow returns a scanner restricted to the frames whose time
// range overlaps [lo, hi]. Frames (and, on version-2 files, whole
// directories) outside the window are never decoded; records inside a
// decoded frame are all produced, including any that spill past the
// window edges, so callers filter records the same way they would after
// a full scan.
func (f *File) ScanWindow(lo, hi clock.Time) *Scanner {
	return &Scanner{f: f, win: true, winLo: lo, winHi: hi}
}

// ScanWindowCtx is ScanWindow with a context: the scan fails with the
// context's error at the next frame boundary after cancellation.
// Servers use it to honor request deadlines; batch callers pass
// context.Background() (or just use ScanWindow).
func (f *File) ScanWindowCtx(ctx context.Context, lo, hi clock.Time) *Scanner {
	return &Scanner{f: f, ctx: ctx, win: true, winLo: lo, winHi: hi}
}

// SetContext attaches a cancellation context to the scanner; see
// ScanWindowCtx. It must be called before scanning starts.
func (s *Scanner) SetContext(ctx context.Context) { s.ctx = ctx }

// SeekTime repositions the scanner immediately before the first frame
// whose end time is at or after t, using only directory metadata — the
// fast seek the frame directory exists for. Scanning then proceeds to
// the end of the file (or window). Seeking past the last frame leaves
// the scanner at EOF. A previous io.EOF state is cleared; a real error
// is not.
func (s *Scanner) SeekTime(t clock.Time) error {
	if s.err != nil && !errors.Is(s.err, io.EOF) {
		return s.err
	}
	s.err = nil
	s.buf = nil
	s.started = true
	s.dir = nil
	v2 := s.f.Header.HeaderVersion >= 2
	seen := map[int64]bool{}
	off := s.f.FirstDir
	for {
		if seen[off] {
			s.err = fmt.Errorf("interval: frame directory cycle at offset %d", off)
			s.release()
			return s.err
		}
		seen[off] = true
		d, n, err := s.f.readDirHeader(off)
		if err != nil {
			s.err = err
			s.release()
			return err
		}
		if v2 && n > 0 && d.End < t {
			// Entire directory ends before t: skip its entry table.
			if d.Next == 0 {
				return nil
			}
			off = d.Next
			continue
		}
		if err := s.f.readDirEntries(d, n); err != nil {
			s.err = err
			s.release()
			return err
		}
		if n > 0 && d.Entries[n-1].End >= t {
			// Frames are end-time ordered: binary search the first frame
			// with End >= t inside this directory.
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if d.Entries[mid].End >= t {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			s.dir = d
			s.frame = lo
			return nil
		}
		if d.Next == 0 {
			return nil
		}
		off = d.Next
	}
}

// ensure positions the scanner on a frame with undecoded records,
// loading directories and frames as needed.
func (s *Scanner) ensure() error {
	if s.err != nil {
		return s.err
	}
	for len(s.buf) == 0 && s.recIdx >= len(s.recs) {
		if err := s.advanceFrame(); err != nil {
			s.err = err
			s.release()
			return err
		}
	}
	return nil
}

// fail records a mid-frame decode error; the scanner is sticky after it.
func (s *Scanner) fail(err error) error {
	s.err = err
	s.release()
	return err
}

// Next returns the next record's payload bytes in the fixed-width
// encoding, or io.EOF after the last record. On v4 files the payload is
// synthesized from the compact frame encoding, so consumers of raw
// payload bytes see every header version identically. The returned
// slice is valid until the following call.
func (s *Scanner) Next() ([]byte, error) {
	if err := s.ensure(); err != nil {
		return nil, err
	}
	if s.recIdx < len(s.recs) {
		// Hook-decoded frame: synthesize the fixed-width payload from
		// the cached record, exactly as the v4 path does.
		s.pbuf = s.recs[s.recIdx].AppendPayload(s.pbuf[:0])
		s.recIdx++
		return s.pbuf, nil
	}
	if s.f.Header.HeaderVersion >= 4 {
		if err := s.cur.next(&s.scratch, nil); err != nil {
			return nil, s.fail(err)
		}
		s.buf = s.cur.buf
		s.pbuf = s.scratch.AppendPayload(s.pbuf[:0])
		return s.pbuf, nil
	}
	payload, n, err := NextFramed(s.buf)
	if err != nil {
		return nil, s.fail(err)
	}
	s.buf = s.buf[n:]
	return payload, nil
}

// NextRecord decodes the next record. The record's Extra/Vec slices are
// carved from the scanner's chunked arena: they stay valid after the
// scan and after further NextRecord calls, they share backing chunks
// with other records from the same scanner, and they are
// capacity-clamped so appending to one never overwrites another.
func (s *Scanner) NextRecord() (Record, error) {
	var r Record
	if err := s.ensure(); err != nil {
		return r, err
	}
	if s.recIdx < len(s.recs) {
		// Hook-decoded frame: the record (and its Extra/Vec slices) is
		// shared with the cache — callers must not mutate it.
		r = s.recs[s.recIdx]
		s.recIdx++
		return r, nil
	}
	if s.f.Header.HeaderVersion >= 4 {
		if err := s.cur.next(&r, &s.arena); err != nil {
			return Record{}, s.fail(err)
		}
		s.buf = s.cur.buf
		return r, nil
	}
	payload, n, err := NextFramed(s.buf)
	if err != nil {
		return r, s.fail(err)
	}
	s.buf = s.buf[n:]
	if err := decodePayload(payload, &r, &s.arena); err != nil {
		return Record{}, s.fail(err)
	}
	return r, nil
}

// NextRecordInto decodes the next record into *r, reusing r's Extra and
// Vec capacity — the decoded slices alias r's previous ones, so a
// record must be consumed (or copied) before the next call overwrites
// it. Hot sequential consumers (merge sources, clock-pair extraction)
// use it to avoid one allocation per record; on v4 files the varints
// decode straight into *r with no intermediate payload.
func (s *Scanner) NextRecordInto(r *Record) error {
	if err := s.ensure(); err != nil {
		return err
	}
	if s.recIdx < len(s.recs) {
		// Hook-decoded frame: *r's slices alias the shared cached
		// record; consumers must copy before mutating.
		*r = s.recs[s.recIdx]
		s.recIdx++
		return nil
	}
	if s.f.Header.HeaderVersion >= 4 {
		if err := s.cur.next(r, nil); err != nil {
			return s.fail(err)
		}
		s.buf = s.cur.buf
		return nil
	}
	payload, n, err := NextFramed(s.buf)
	if err != nil {
		return s.fail(err)
	}
	s.buf = s.buf[n:]
	if err := DecodePayloadInto(payload, r); err != nil {
		return s.fail(err)
	}
	return nil
}

// All drains the scanner. The result slice is sized up front from the
// frame directories' record counts when the scan starts at the
// beginning of the file.
func (s *Scanner) All() ([]Record, error) {
	var recs []Record
	if !s.started && s.err == nil {
		fes, err := s.f.Frames()
		if s.win && err == nil {
			kept := fes[:0:0]
			for _, fe := range fes {
				if fe.End >= s.winLo && fe.Start <= s.winHi {
					kept = append(kept, fe)
				}
			}
			fes = kept
		}
		if err == nil {
			var total int64
			for _, fe := range fes {
				total += int64(fe.Records)
			}
			recs = make([]Record, 0, total)
		}
	}
	for {
		r, err := s.NextRecord()
		if errors.Is(err, io.EOF) {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r)
	}
}

func (s *Scanner) advanceFrame() error {
	s.recs, s.recIdx = nil, 0
	for {
		if s.dir == nil {
			if s.started {
				return io.EOF
			}
			s.started = true
			if err := s.loadDir(s.f.FirstDir); err != nil {
				return err
			}
			if s.dir == nil {
				return io.EOF
			}
		}
		if s.frame < len(s.dir.Entries) {
			fe := s.dir.Entries[s.frame]
			s.frame++
			if s.win && (fe.End < s.winLo || fe.Start > s.winHi) {
				continue
			}
			if s.ctx != nil {
				if err := s.ctx.Err(); err != nil {
					return err
				}
			}
			if s.f.hook != nil {
				recs, err := s.f.hook(s.f, fe)
				if err != nil {
					return err
				}
				if len(recs) == 0 {
					continue
				}
				s.recs, s.recIdx = recs, 0
				return nil
			}
			if s.frameBuf == nil {
				s.frameBuf = getBuf()
			}
			buf, err := s.f.readFrameInto(fe, *s.frameBuf)
			if err != nil {
				return err
			}
			*s.frameBuf = buf
			if len(buf) == 0 {
				continue
			}
			if s.f.Header.HeaderVersion >= 4 {
				// Parse the frame-local dictionary and base start; s.buf
				// mirrors the cursor's remaining bytes from here on.
				if err := s.cur.init(s.f.Header.HeaderVersion, buf); err != nil {
					return err
				}
				if len(s.cur.buf) == 0 {
					continue
				}
				s.buf = s.cur.buf
				return nil
			}
			s.buf = buf
			return nil
		}
		if s.dir.Next == 0 {
			return io.EOF
		}
		if err := s.loadDir(s.dir.Next); err != nil {
			return err
		}
		if s.dir == nil {
			return io.EOF
		}
	}
}

// loadDir reads the directory at off into s.dir. On window scans of
// version-2 files, directories whose aggregate bounds miss the window
// are skipped using only their headers; reaching the end of the chain
// this way leaves s.dir nil (EOF).
func (s *Scanner) loadDir(off int64) error {
	v2 := s.f.Header.HeaderVersion >= 2
	for {
		d, n, err := s.f.readDirHeader(off)
		if err != nil {
			return err
		}
		if s.win && v2 && n > 0 && !d.Overlaps(s.winLo, s.winHi) {
			if d.Next == 0 {
				s.dir = nil
				return nil
			}
			off = d.Next
			continue
		}
		if err := s.f.readDirEntries(d, n); err != nil {
			return err
		}
		s.dir = d
		s.frame = 0
		return nil
	}
}

// release returns the pooled frame buffer once the scan has terminated
// (EOF or error; s.err is sticky, so the buffer cannot be touched
// again).
func (s *Scanner) release() {
	if s.frameBuf != nil {
		putBuf(s.frameBuf)
		s.frameBuf = nil
		s.buf = nil
	}
}
