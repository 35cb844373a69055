// Package interval implements the paper's self-defining interval trace
// file format (§2.3) and its simple access API (§2.4). An interval file
// holds a header, a thread table, a marker-string table, and interval
// records partitioned into frames linked from doubly-linked frame
// directories, so that utilities can jump to any frame without reading
// the records before it. Records within a file are in ascending order of
// their end time (start + duration), the property the merge utility
// relies on.
//
// # Opening files
//
// Open (a path) and NewFile (an io.ReadSeeker) are the package's entry
// points, configured by functional options: WithVerifyChecksums
// controls the per-frame payload checksum pass, WithSalvage opens in
// best-effort recovery mode and reports what was recovered through its
// sink.
//
// A File may be shared by concurrent readers when ConcurrentReads
// reports true (the underlying reader implements io.ReaderAt); Preload
// makes the directory chain resident so metadata operations are
// seek-free too. Close is idempotent and safe under concurrency;
// operations on a closed file fail with ErrClosed. Long-running callers
// cancel work mid-scan through MapOptions.Context, ScanWindowCtx, or
// Scanner.SetContext — cancellation is checked at frame granularity.
package interval

import (
	"encoding/binary"
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Record is a decoded standard-profile interval record: the common
// fields of §2.3.2 plus the state type's extra fields (all unsigned
// 64-bit scalars, in events.ExtraFields order).
type Record struct {
	Type   events.Type
	Bebits profile.Bebits
	Start  clock.Time // start timestamp
	Dura   clock.Time // duration
	CPU    uint16     // processor ID
	Node   uint16     // node ID
	Thread uint16     // node-local logical thread ID
	Extra  []uint64
	// Vec is the state type's trailing vector field (flattened unsigned
	// 64-bit elements), present only for types where
	// events.VectorField(Type) is non-empty.
	Vec []uint64
}

// End returns the record's end time, the file's sort key.
func (r Record) End() clock.Time { return r.Start + r.Dura }

// Field returns the named extra field's value, consulting the state
// type's field table.
func (r Record) Field(name string) (uint64, bool) {
	for i, f := range events.ExtraFields(r.Type) {
		if f == name && i < len(r.Extra) {
			return r.Extra[i], true
		}
	}
	return 0, false
}

// String renders a compact human-readable form.
func (r Record) String() string {
	return fmt.Sprintf("%s/%s n%d c%d t%d [%v +%v]",
		r.Type.Name(), r.Bebits, r.Node, r.CPU, r.Thread, r.Start, r.Dura)
}

// Each interval record is preceded by a one-byte record length; a zero
// length escapes to a two-byte length for records over 255 bytes
// (paper §2.3.2), so readers can always find the next record without
// examining the current one in detail.

// AppendFramed appends payload with its length prefix.
func AppendFramed(dst, payload []byte) []byte {
	if len(payload) > 0xffff {
		panic(fmt.Sprintf("interval: record payload %d bytes exceeds format limit", len(payload)))
	}
	if len(payload) > 0 && len(payload) <= 255 {
		dst = append(dst, byte(len(payload)))
	} else {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(len(payload)))
		dst = append(dst, 0, b[0], b[1])
	}
	return append(dst, payload...)
}

// NextFramed splits the first length-prefixed record payload from b,
// returning the payload and the total bytes consumed.
func NextFramed(b []byte) (payload []byte, n int, err error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("interval: empty buffer")
	}
	l := int(b[0])
	off := 1
	if l == 0 {
		if len(b) < 3 {
			return nil, 0, fmt.Errorf("interval: truncated extended length")
		}
		l = int(binary.LittleEndian.Uint16(b[1:3]))
		off = 3
	}
	if len(b) < off+l {
		return nil, 0, fmt.Errorf("interval: truncated record (want %d bytes)", l)
	}
	return b[off : off+l], off + l, nil
}

// AppendPayload appends r's standard-profile payload (no length prefix):
// the common fields, the scalar extras, and — for types declaring one —
// the trailing vector field (2-byte counter plus 8-byte elements).
func (r *Record) AppendPayload(dst []byte) []byte {
	var b [profile.CommonSize]byte
	binary.LittleEndian.PutUint16(b[0:], uint16(r.Type))
	b[2] = uint8(r.Bebits)
	binary.LittleEndian.PutUint64(b[3:], uint64(r.Start))
	binary.LittleEndian.PutUint64(b[11:], uint64(r.Dura))
	binary.LittleEndian.PutUint16(b[19:], r.CPU)
	binary.LittleEndian.PutUint16(b[21:], r.Node)
	binary.LittleEndian.PutUint16(b[23:], r.Thread)
	dst = append(dst, b[:]...)
	var w [8]byte
	for _, e := range r.Extra {
		binary.LittleEndian.PutUint64(w[:], e)
		dst = append(dst, w[:]...)
	}
	if events.VectorField(r.Type) != "" {
		binary.LittleEndian.PutUint16(w[:2], uint16(len(r.Vec)))
		dst = append(dst, w[:2]...)
		for _, e := range r.Vec {
			binary.LittleEndian.PutUint64(w[:], e)
			dst = append(dst, w[:]...)
		}
	}
	return dst
}

// Append appends r with its length prefix.
func (r *Record) Append(dst []byte) []byte {
	return AppendFramed(dst, r.AppendPayload(nil))
}

// EncodedSize returns the framed size of r.
func (r *Record) EncodedSize() int {
	n := profile.CommonSize + 8*len(r.Extra)
	if events.VectorField(r.Type) != "" {
		n += 2 + 8*len(r.Vec)
	}
	if n > 0 && n <= 255 {
		return 1 + n
	}
	return 3 + n
}

// DecodePayload parses a standard-profile record payload into a fresh
// Record.
func DecodePayload(payload []byte) (Record, error) {
	var r Record
	err := DecodePayloadInto(payload, &r)
	return r, err
}

// DecodePayloadInto parses a standard-profile record payload into *r,
// reusing r's Extra and Vec capacity when possible, so hot decode loops
// (the Scanner, the merge read-ahead stage) avoid one allocation per
// record. Zero-length Extra/Vec are set to nil, matching DecodePayload.
func DecodePayloadInto(payload []byte, r *Record) error {
	return decodePayload(payload, r, nil)
}

// decodePayload is DecodePayloadInto with a pluggable allocation
// policy: a nil arena reuses r's capacity (records overwritten by the
// next decode), a non-nil arena carves fresh capacity-clamped blocks
// (records that escape the decode loop, one allocation per chunk).
func decodePayload(payload []byte, r *Record, a *u64Arena) error {
	if len(payload) < profile.CommonSize {
		return fmt.Errorf("interval: payload %d bytes, need at least %d", len(payload), profile.CommonSize)
	}
	r.Type = events.Type(binary.LittleEndian.Uint16(payload[0:]))
	r.Bebits = profile.Bebits(payload[2])
	r.Start = clock.Time(binary.LittleEndian.Uint64(payload[3:]))
	r.Dura = clock.Time(binary.LittleEndian.Uint64(payload[11:]))
	r.CPU = binary.LittleEndian.Uint16(payload[19:])
	r.Node = binary.LittleEndian.Uint16(payload[21:])
	r.Thread = binary.LittleEndian.Uint16(payload[23:])
	r.Vec = nil
	rest := payload[profile.CommonSize:]
	if events.VectorField(r.Type) != "" {
		// Fixed scalar extras, then the counter-prefixed vector.
		nx := len(events.ExtraFields(r.Type))
		if len(rest) < 8*nx+2 {
			return fmt.Errorf("interval: %s record too short for %d extras + vector counter", r.Type.Name(), nx)
		}
		r.Extra = allocU64(r.Extra, nx, a)
		for i := range r.Extra {
			r.Extra[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
		rest = rest[8*nx:]
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != 8*n {
			return fmt.Errorf("interval: vector claims %d elements, %d bytes follow", n, len(rest))
		}
		if n > 0 {
			r.Vec = allocU64(nil, n, a)
			for i := range r.Vec {
				r.Vec[i] = binary.LittleEndian.Uint64(rest[8*i:])
			}
		}
		return nil
	}
	if len(rest)%8 != 0 {
		return fmt.Errorf("interval: %d trailing bytes not a whole number of extras", len(rest))
	}
	if len(rest) > 0 {
		r.Extra = allocU64(r.Extra, len(rest)/8, a)
		for i := range r.Extra {
			r.Extra[i] = binary.LittleEndian.Uint64(rest[8*i:])
		}
	} else {
		r.Extra = nil
	}
	return nil
}

// allocU64 returns an n-element slice: from the arena when one is
// supplied, otherwise reusing b's capacity. n == 0 yields nil either
// way, matching DecodePayload.
func allocU64(b []uint64, n int, a *u64Arena) []uint64 {
	if n == 0 {
		return nil
	}
	if a != nil {
		return a.alloc(n)
	}
	return growU64(b, n)
}

// growU64 returns b resized to n elements, reusing its capacity.
func growU64(b []uint64, n int) []uint64 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]uint64, n)
}
