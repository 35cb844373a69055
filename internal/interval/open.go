package interval

import (
	"fmt"
	"io"
	"os"
)

// This file is the package's single entry point for opening interval
// data: Open for paths, NewFile for readers, both configured by
// functional options (salvage, checksum verification, pyramid
// auto-load, live tail).

// Option configures Open and NewFile.
type Option func(*openOptions)

type openOptions struct {
	verifySums bool
	salvage    *SalvageResult
	pyramid    bool
	liveTail   int64
}

func defaultOpenOptions() openOptions {
	return openOptions{verifySums: true, pyramid: true, liveTail: -1}
}

// WithVerifyChecksums controls verification of per-frame payload
// CRC-32C checksums on version-3+ files (the default is true). Turning
// it off skips the checksum pass on every frame read — useful when the
// file was just written or validated and the reread cost matters.
// Directory metadata checksums are always verified: they are read once
// and guard every offset the reader will trust. Salvage ignores this
// option and always verifies payloads; its soundness bar does not bend.
func WithVerifyChecksums(v bool) Option {
	return func(o *openOptions) { o.verifySums = v }
}

// WithSalvage opens the file in best-effort recovery mode: after the
// fixed header parses, a full Salvage pass runs and its result — the
// recovered frames and the SalvageReport — is stored in *sink. Open
// then only fails when the fixed header itself is unreadable;
// everything after it is handled tolerantly by the salvage pass, which
// never fails. The sink must be non-nil.
func WithSalvage(sink *SalvageResult) Option {
	return func(o *openOptions) { o.salvage = sink }
}

// WithPyramid controls the summary-pyramid sidecar auto-load (the
// default is true): Open looks for <path>.pyr and, when it decodes,
// verifies, and matches the trace's frame-directory signature, attaches
// it so SummarizeWindow can answer from summary cells. The sidecar is
// strictly advisory — a missing, corrupt, truncated, or stale sidecar
// is silently ignored and every query falls back to the scan engine —
// so no option value can ever make Open fail. NewFile never auto-loads
// (a bare reader has no path).
func WithPyramid(v bool) Option {
	return func(o *openOptions) { o.pyramid = v }
}

// WithLiveTail opens a snapshot of a file that is still being written:
// sealedSize is a prefix length previously reported by the writer (a
// SealInfo.Size from WriterOptions.OnSeal). The reader clamps every
// bound to sealedSize, so bytes beyond it — not yet written, or a
// directory mid-flush — are invisible, and it treats a directory whose
// next link equals sealedSize as the end of the chain (the writer
// writes that link speculatively; it only becomes a real pointer once
// the next directory seals). A sealedSize that covers only the header
// yields a valid empty trace. Opening a fully Closed file with its
// final size behaves identically to a plain Open.
func WithLiveTail(sealedSize int64) Option {
	return func(o *openOptions) { o.liveTail = sealedSize }
}

// Open opens an interval file on disk, auto-loading the advisory
// pyramid sidecar; see WithSalvage, WithVerifyChecksums, and WithPyramid for
// the configurable behaviors.
func Open(path string, opts ...Option) (*File, error) {
	o := defaultOpenOptions()
	for _, opt := range opts {
		opt(&o)
	}
	fp, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	f, err := NewFile(fp, opts...)
	if err != nil {
		fp.Close()
		return nil, err
	}
	if o.pyramid {
		// Advisory: any load error (no sidecar, damage, staleness, or
		// even unreadable frame metadata on a damaged trace) just means
		// queries scan.
		if p, err := LoadPyramid(PyramidPath(path), f); err == nil {
			f.pyr = p
		}
	}
	return f, nil
}

// NewFile parses the header, thread table, and marker table from r (the
// paper's readHeader), leaving r positioned at the first frame
// directory. It accepts the same options as Open. When r implements
// io.Closer the returned File owns it and Close closes it; when r
// implements io.ReaderAt frames can be read concurrently
// (ConcurrentReads).
func NewFile(r io.ReadSeeker, opts ...Option) (*File, error) {
	o := defaultOpenOptions()
	for _, opt := range opts {
		opt(&o)
	}
	f, err := readFileHeader(r)
	if err != nil {
		return nil, err
	}
	if o.liveTail >= 0 {
		if o.liveTail > f.Size {
			return nil, fmt.Errorf("interval: live tail %d beyond file size %d", o.liveTail, f.Size)
		}
		if o.liveTail < f.FirstDir {
			return nil, fmt.Errorf("interval: live tail %d truncates the header (tables end at %d)", o.liveTail, f.FirstDir)
		}
		f.Size = o.liveTail
		f.live = true
	}
	f.verifySums = o.verifySums
	if o.salvage != nil {
		*o.salvage = *f.Salvage()
	}
	return f, nil
}
