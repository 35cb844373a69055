package interval

// Header version 4 compact frame encoding. The directory layout is
// unchanged from version 3 (same magic, metadata checksum, and
// per-frame payload CRC over the encoded bytes); only the bytes inside
// each frame differ. Instead of fixed-width records, a v4 frame holds:
//
//	dictCount   uvarint
//	dictionary  dictCount × (type, bebits, cpu, node, thread, nExtras), all uvarint
//	baseStart   varint (zigzag) — the minimum start time in the frame
//	records     × (dictIdx uvarint, startDelta uvarint, duration varint,
//	               nExtras × extra uvarint,
//	               [vecCount uvarint + vecCount × elem uvarint])
//
// The dictionary deduplicates the (type, bebits, cpu, node, thread)
// tuples that repeat across a frame's records; nExtras lives in the
// dictionary because the fixed-width encoding derives the scalar extras
// count from the payload length, so it must be stated explicitly once
// lengths are variable. The vector field (present exactly when
// events.VectorField(type) is non-empty) keeps a per-record element
// count. startDelta is relative to baseStart, which is the frame
// *minimum* — records are end-time ordered, so the first record's start
// need not be the smallest. Keeping the base frame-local means window
// seeks, the parallel map-reduce engine, and salvage resync never need
// context outside one frame.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// dictEntry is one row of a v4 frame dictionary, and doubles as the
// writer's deduplication key (it is comparable).
type dictEntry struct {
	typ    events.Type
	bebits profile.Bebits
	cpu    uint16
	node   uint16
	thread uint16
	nx     int // scalar extras count
}

const (
	// minV4Record bounds the smallest encoded v4 record: dictionary
	// index, start delta, and duration at one varint byte each.
	minV4Record = 3
	// minV4DictEntry: six varint fields at one byte each.
	minV4DictEntry = 6
	// maxPayload is the largest v1-style payload AppendFramed can frame.
	// v4 decoding enforces it so every decoded record can be re-encoded
	// fixed-width (Scanner.Next, Repair).
	maxPayload = 0xffff
)

// minRecordBytes is the smallest possible encoded record for a header
// version, used to validate record counts against frame and file sizes.
func minRecordBytes(version uint32) int64 {
	if version >= 4 {
		return minV4Record
	}
	return minFramedRecord
}

// v4EncState is the writer's per-frame transcode scratch, reused across
// frames so steady-state encoding allocates nothing.
type v4EncState struct {
	dict []dictEntry
	keys map[dictEntry]uint32
	idx  []uint32 // per-record dictionary index, filled by pass 1
	rec  Record
}

// encodeFrameV4 transcodes a frame of length-prefixed fixed-width
// records (the writer's accumulation format) into the v4 compact
// encoding, appending to dst. Two passes over the frame: the first
// builds the dictionary and finds the base start, the second emits.
func encodeFrameV4(dst, framed []byte, st *v4EncState) ([]byte, error) {
	if len(framed) == 0 {
		return dst, nil
	}
	if st.keys == nil {
		st.keys = make(map[dictEntry]uint32)
	}
	st.dict = st.dict[:0]
	st.idx = st.idx[:0]
	clear(st.keys)
	var base clock.Time
	b := framed
	for first := true; len(b) > 0; first = false {
		payload, n, err := NextFramed(b)
		if err != nil {
			return dst, err
		}
		if err := DecodePayloadInto(payload, &st.rec); err != nil {
			return dst, err
		}
		key := dictEntry{st.rec.Type, st.rec.Bebits, st.rec.CPU, st.rec.Node, st.rec.Thread, len(st.rec.Extra)}
		di, ok := st.keys[key]
		if !ok {
			di = uint32(len(st.dict))
			st.dict = append(st.dict, key)
			st.keys[key] = di
		}
		st.idx = append(st.idx, di)
		if first || st.rec.Start < base {
			base = st.rec.Start
		}
		b = b[n:]
	}
	dst = binary.AppendUvarint(dst, uint64(len(st.dict)))
	for _, d := range st.dict {
		dst = binary.AppendUvarint(dst, uint64(d.typ))
		dst = binary.AppendUvarint(dst, uint64(d.bebits))
		dst = binary.AppendUvarint(dst, uint64(d.cpu))
		dst = binary.AppendUvarint(dst, uint64(d.node))
		dst = binary.AppendUvarint(dst, uint64(d.thread))
		dst = binary.AppendUvarint(dst, uint64(d.nx))
	}
	dst = binary.AppendVarint(dst, int64(base))
	b = framed
	for ri := 0; len(b) > 0; ri++ {
		payload, n, _ := NextFramed(b)
		_ = DecodePayloadInto(payload, &st.rec) // validated by pass 1
		dst = binary.AppendUvarint(dst, uint64(st.idx[ri]))
		dst = binary.AppendUvarint(dst, uint64(st.rec.Start-base))
		dst = binary.AppendVarint(dst, int64(st.rec.Dura))
		for _, e := range st.rec.Extra {
			dst = binary.AppendUvarint(dst, e)
		}
		if events.VectorField(st.rec.Type) != "" {
			dst = binary.AppendUvarint(dst, uint64(len(st.rec.Vec)))
			for _, e := range st.rec.Vec {
				dst = binary.AppendUvarint(dst, e)
			}
		}
		b = b[n:]
	}
	return dst, nil
}

// frameCursor iterates one frame's records for any header version:
// length-prefixed fixed-width records below version 4, the compact
// varint stream from version 4 on. init parses the v4 frame header
// (dictionary and base start); next decodes one record. The cursor is
// reusable across frames — the dictionary scratch keeps its capacity.
//
// Every count read from the stream is bounded against the bytes that
// remain before anything is allocated, so a corrupt or adversarial
// frame fails with an error instead of a huge allocation.
type frameCursor struct {
	version uint32
	buf     []byte // remaining undecoded frame bytes
	dict    []dictEntry
	base    clock.Time
	// payload is the raw fixed-width payload of the record last returned
	// by next on versions < 4; nil on v4 frames (synthesize bytes with
	// Record.AppendPayload when needed).
	payload []byte
}

// errVarint reports a varint that runs past the frame or past 64 bits.
var errVarint = errors.New("interval: truncated or oversized varint")

// uvarint reads one varint from the stream. The single-byte case is
// split out so it inlines into the decode loop — in practice most v4
// stream values (dictionary indices, small deltas, extras) are one byte.
func (c *frameCursor) uvarint() (uint64, error) {
	if len(c.buf) != 0 && c.buf[0] < 0x80 {
		v := uint64(c.buf[0])
		c.buf = c.buf[1:]
		return v, nil
	}
	return c.uvarintSlow()
}

func (c *frameCursor) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(c.buf)
	if n <= 0 {
		return 0, errVarint
	}
	c.buf = c.buf[n:]
	return v, nil
}

// varint is uvarint plus zigzag decoding, with the same fast path.
func (c *frameCursor) varint() (int64, error) {
	if len(c.buf) != 0 && c.buf[0] < 0x80 {
		u := uint64(c.buf[0])
		c.buf = c.buf[1:]
		return int64(u>>1) ^ -int64(u&1), nil
	}
	return c.varintSlow()
}

func (c *frameCursor) varintSlow() (int64, error) {
	v, n := binary.Varint(c.buf)
	if n <= 0 {
		return 0, errVarint
	}
	c.buf = c.buf[n:]
	return v, nil
}

// init points the cursor at a frame's bytes. For v4 it parses and
// validates the dictionary and base start; an empty buffer is an empty
// frame on every version.
func (c *frameCursor) init(version uint32, buf []byte) error {
	c.version = version
	c.buf = buf
	c.payload = nil
	if version < 4 || len(buf) == 0 {
		return nil
	}
	c.dict = c.dict[:0]
	nd, err := c.uvarint()
	if err != nil {
		return err
	}
	if nd == 0 || nd > uint64(len(c.buf)/minV4DictEntry) {
		return fmt.Errorf("interval: v4 frame dictionary of %d entries cannot fit in %d bytes", nd, len(c.buf))
	}
	for i := 0; i < int(nd); i++ {
		t, err := c.uvarint()
		if err != nil {
			return err
		}
		be, err := c.uvarint()
		if err != nil {
			return err
		}
		cpu, err := c.uvarint()
		if err != nil {
			return err
		}
		node, err := c.uvarint()
		if err != nil {
			return err
		}
		thr, err := c.uvarint()
		if err != nil {
			return err
		}
		nx, err := c.uvarint()
		if err != nil {
			return err
		}
		if t > 0xffff || be > 0xff || cpu > 0xffff || node > 0xffff || thr > 0xffff {
			return fmt.Errorf("interval: v4 dictionary entry %d field out of range", i)
		}
		// Every extra costs at least one stream byte, and the record must
		// stay re-encodable as a fixed-width payload.
		if nx > uint64(len(c.buf)) || profile.CommonSize+8*nx > maxPayload {
			return fmt.Errorf("interval: v4 dictionary entry %d claims %d extras", i, nx)
		}
		c.dict = append(c.dict, dictEntry{
			typ:    events.Type(t),
			bebits: profile.Bebits(be),
			cpu:    uint16(cpu),
			node:   uint16(node),
			thread: uint16(thr),
			nx:     int(nx),
		})
	}
	base, err := c.varint()
	if err != nil {
		return err
	}
	c.base = clock.Time(base)
	if len(c.buf) == 0 {
		return fmt.Errorf("interval: v4 frame has a dictionary but no records")
	}
	return nil
}

// next decodes the record at the cursor into *r. With a nil arena,
// r's Extra/Vec capacity is reused (the NextRecordInto contract); with
// an arena, Extra and Vec are fresh capacity-clamped blocks from it, so
// the decoded record can outlive r and later decodes.
func (c *frameCursor) next(r *Record, a *u64Arena) error {
	if c.version < 4 {
		payload, n, err := NextFramed(c.buf)
		if err != nil {
			return err
		}
		c.buf = c.buf[n:]
		c.payload = payload
		return decodePayload(payload, r, a)
	}
	// The loop below hand-inlines the one-byte varint fast path against a
	// local slice: at ~9 stream values per record this is the scan hot
	// path, and the method calls plus per-call c.buf header writes are
	// measurable against the fixed-width decoder.
	b := c.buf
	var v uint64
	var n int
	if len(b) != 0 && b[0] < 0x80 {
		v, b = uint64(b[0]), b[1:]
	} else if v, n = binary.Uvarint(b); n > 0 {
		b = b[n:]
	} else {
		return errVarint
	}
	if v >= uint64(len(c.dict)) {
		return fmt.Errorf("interval: v4 record dictionary index %d out of range (%d entries)", v, len(c.dict))
	}
	d := c.dict[v]
	r.Type, r.Bebits, r.CPU, r.Node, r.Thread = d.typ, d.bebits, d.cpu, d.node, d.thread
	if len(b) != 0 && b[0] < 0x80 {
		v, b = uint64(b[0]), b[1:]
	} else if v, n = binary.Uvarint(b); n > 0 {
		b = b[n:]
	} else {
		return errVarint
	}
	r.Start = c.base + clock.Time(v)
	if len(b) != 0 && b[0] < 0x80 {
		v, b = uint64(b[0]), b[1:]
	} else if v, n = binary.Uvarint(b); n > 0 {
		b = b[n:]
	} else {
		return errVarint
	}
	r.Dura = clock.Time(int64(v>>1) ^ -int64(v&1))
	if d.nx == 0 {
		r.Extra = nil
	} else {
		if a != nil {
			r.Extra = a.alloc(d.nx)
		} else {
			r.Extra = growU64(r.Extra, d.nx)
		}
		for i := range r.Extra {
			if len(b) != 0 && b[0] < 0x80 {
				v, b = uint64(b[0]), b[1:]
			} else if v, n = binary.Uvarint(b); n > 0 {
				b = b[n:]
			} else {
				return errVarint
			}
			r.Extra[i] = v
		}
	}
	c.buf = b
	if events.VectorField(d.typ) == "" {
		r.Vec = nil
		return nil
	}
	nv, err := c.uvarint()
	if err != nil {
		return err
	}
	if nv > uint64(len(c.buf)) || profile.CommonSize+8*uint64(d.nx)+2+8*nv > maxPayload {
		return fmt.Errorf("interval: v4 record claims a %d-element vector", nv)
	}
	if nv == 0 {
		r.Vec = nil
		return nil
	}
	if a != nil {
		r.Vec = a.alloc(int(nv))
	} else {
		r.Vec = growU64(r.Vec, int(nv))
	}
	for i := range r.Vec {
		if r.Vec[i], err = c.uvarint(); err != nil {
			return err
		}
	}
	return nil
}

// u64Arena hands out capacity-clamped []uint64 blocks carved from
// append-only chunks. Blocks from one arena share chunk backing arrays
// but can never grow into each other (three-index slices), and unless
// the arena is reset its chunks are never recycled, so a block stays
// valid for the life of the records holding it. Decode loops use one to amortize the per-record
// Extra/Vec allocation into one allocation per ~4096 elements.
type u64Arena struct {
	chunk []uint64
}

const arenaChunkLen = 4096

// reset hands the current chunk out again from its start. Only a caller
// that has copied out every block it was given may reset: later blocks
// overwrite earlier ones.
func (a *u64Arena) reset() { a.chunk = a.chunk[:0] }

func (a *u64Arena) alloc(n int) []uint64 {
	if n == 0 {
		return nil
	}
	if len(a.chunk)+n > cap(a.chunk) {
		c := arenaChunkLen
		if n > c {
			c = n
		}
		a.chunk = make([]uint64, 0, c)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+n]
	return a.chunk[off : off+n : off+n]
}
