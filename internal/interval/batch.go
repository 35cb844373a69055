package interval

// Columnar frame decode. A Batch holds one frame's records as parallel
// column vectors instead of a []Record: the common fields become flat
// arrays, and the variable-length extras and vector elements are
// flattened into two shared backing columns addressed by prefix-sum
// offsets. Filling a batch straight from the v4 delta-varint stream
// skips per-record materialization entirely — no Record structs, no
// per-record Extra/Vec slice headers — and because every column is a
// plain reusable slice, a pooled batch decodes with zero allocations
// once its columns have grown to frame size. Batch.Decode is the only
// whole-frame decoder: the map-reduce engine (MapFilesBatches) hands
// batches to every analysis consumer, and a frame's []Record
// (DecodeFrameDirect) is one copy-out of a decoded batch (Records). The
// streaming Scanner keeps its own per-record cursor and serves as the
// independent oracle the tests check batches against.

import (
	"encoding/binary"
	"fmt"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/profile"
)

// Batch is one frame of records in columnar form. Row i's scalar extras
// are Extras[ExtraOff[i]:ExtraOff[i+1]] and its vector elements
// Vecs[VecOff[i]:VecOff[i+1]]; both offset columns hold N+1 entries so
// the slicing needs no per-row length column. All columns are reused
// across decodes — a batch obtained from MapFilesBatches is valid only
// for the duration of the map callback.
type Batch struct {
	N      int
	Start  []clock.Time
	Dura   []clock.Time
	Type   []events.Type
	Bebits []profile.Bebits
	CPU    []uint16
	Node   []uint16
	Thread []uint16

	ExtraOff []uint32
	Extras   []uint64
	VecOff   []uint32
	Vecs     []uint64

	cur     frameCursor // decode state; v4 dictionary scratch reused across frames
	scratch Record      // v1–v3 decode target for one row
	vals    u64Arena    // backs scratch's Extra/Vec, reset per row
}

// reset empties the batch, keeping every column's capacity.
func (b *Batch) reset() {
	b.N = 0
	b.Start = b.Start[:0]
	b.Dura = b.Dura[:0]
	b.Type = b.Type[:0]
	b.Bebits = b.Bebits[:0]
	b.CPU = b.CPU[:0]
	b.Node = b.Node[:0]
	b.Thread = b.Thread[:0]
	b.ExtraOff = append(b.ExtraOff[:0], 0)
	b.Extras = b.Extras[:0]
	b.VecOff = append(b.VecOff[:0], 0)
	b.Vecs = b.Vecs[:0]
}

// End returns row i's end time, the file sort key.
func (b *Batch) End(i int) clock.Time { return b.Start[i] + b.Dura[i] }

// ExtraRow returns row i's scalar extras (aliasing the batch).
func (b *Batch) ExtraRow(i int) []uint64 {
	return b.Extras[b.ExtraOff[i]:b.ExtraOff[i+1]]
}

// VecRow returns row i's vector elements (aliasing the batch).
func (b *Batch) VecRow(i int) []uint64 {
	return b.Vecs[b.VecOff[i]:b.VecOff[i+1]]
}

// Row materializes row i as a Record whose Extra and Vec alias the
// batch's backing columns: read-only, and valid only until the batch is
// reset or reused. Use Records for records that must outlive the batch.
func (b *Batch) Row(i int) Record {
	r := Record{
		Type:   b.Type[i],
		Bebits: b.Bebits[i],
		Start:  b.Start[i],
		Dura:   b.Dura[i],
		CPU:    b.CPU[i],
		Node:   b.Node[i],
		Thread: b.Thread[i],
	}
	if x := b.ExtraRow(i); len(x) > 0 {
		r.Extra = x
	}
	if v := b.VecRow(i); len(v) > 0 {
		r.Vec = v
	}
	return r
}

// Records copies the batch out as self-contained records: one
// allocation for the []Record and one copy each of Extras and Vecs.
// Each record's Extra and Vec is a capacity-clamped subslice of those
// copies (nil when the row has no values), so appending to one record's
// slice never overwrites a neighbour's, and nothing aliases the batch —
// it may be reset or reused at once.
func (b *Batch) Records() []Record {
	recs := make([]Record, b.N)
	var extras, vecs []uint64
	if len(b.Extras) > 0 {
		extras = append([]uint64(nil), b.Extras...)
	}
	if len(b.Vecs) > 0 {
		vecs = append([]uint64(nil), b.Vecs...)
	}
	// Field-by-field stores into the zeroed slice: building a Record
	// value and copying it in costs a struct copy per row.
	for i := range recs {
		r := &recs[i]
		r.Type, r.Bebits = b.Type[i], b.Bebits[i]
		r.Start, r.Dura = b.Start[i], b.Dura[i]
		r.CPU, r.Node, r.Thread = b.CPU[i], b.Node[i], b.Thread[i]
		if lo, hi := b.ExtraOff[i], b.ExtraOff[i+1]; hi > lo {
			r.Extra = extras[lo:hi:hi]
		}
		if lo, hi := b.VecOff[i], b.VecOff[i+1]; hi > lo {
			r.Vec = vecs[lo:hi:hi]
		}
	}
	return recs
}

// pushCommon appends one row's fixed-width fields; the caller appends
// the extras/vecs and closes the offset columns.
func (b *Batch) pushCommon(typ events.Type, be profile.Bebits, start, dura clock.Time, cpu, node, thread uint16) {
	b.Start = append(b.Start, start)
	b.Dura = append(b.Dura, dura)
	b.Type = append(b.Type, typ)
	b.Bebits = append(b.Bebits, be)
	b.CPU = append(b.CPU, cpu)
	b.Node = append(b.Node, node)
	b.Thread = append(b.Thread, thread)
	b.N++
}

// closeRow finalizes the variable-length offset columns for the row
// whose common fields pushCommon just appended.
func (b *Batch) closeRow() {
	b.ExtraOff = append(b.ExtraOff, uint32(len(b.Extras)))
	b.VecOff = append(b.VecOff, uint32(len(b.Vecs)))
}

// push appends r as the batch's next row.
func (b *Batch) push(r *Record) {
	b.pushCommon(r.Type, r.Bebits, r.Start, r.Dura, r.CPU, r.Node, r.Thread)
	b.Extras = append(b.Extras, r.Extra...)
	b.Vecs = append(b.Vecs, r.Vec...)
	b.closeRow()
}

// FromRecords fills the batch from already-decoded records — the path
// taken when a frame-decode hook (the daemon's decoded-frame cache)
// already holds the frame's records, so a warm query never touches the
// encoded bytes.
func (b *Batch) FromRecords(recs []Record) {
	b.reset()
	for i := range recs {
		b.push(&recs[i])
	}
}

// Decode fills the batch from a frame's raw (checksum-verified) payload
// bytes and cross-checks the record count claimed by the directory
// entry. Version-4 frames decode straight into the columns; the
// fixed-width records of versions 1–3 are walked with the frame cursor,
// one scratch record at a time.
func (b *Batch) Decode(version uint32, fe FrameEntry, buf []byte) error {
	b.reset()
	if err := b.cur.init(version, buf); err != nil {
		return err
	}
	if version >= 4 {
		if err := b.decodeV4(); err != nil {
			return err
		}
	} else {
		for len(b.cur.buf) > 0 {
			// The previous row is already in the columns, so its arena
			// block can be handed out again.
			b.vals.reset()
			if err := b.cur.next(&b.scratch, &b.vals); err != nil {
				return err
			}
			b.push(&b.scratch)
		}
	}
	if b.N != int(fe.Records) {
		return fmt.Errorf("interval: frame claims %d records, found %d", fe.Records, b.N)
	}
	return nil
}

// decodeV4 fills columns from the compact varint stream after cur.init
// has consumed the dictionary and base start. Like frameCursor.next it
// hand-inlines the one-byte varint fast path against a local slice —
// this loop is the whole point of the columnar path, so it pays to keep
// the per-value cost at a bounds check and a compare.
func (b *Batch) decodeV4() error {
	dict := b.cur.dict
	base := b.cur.base
	s := b.cur.buf
	var v uint64
	var n int
	for len(s) > 0 {
		// Dictionary index.
		if s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		if v >= uint64(len(dict)) {
			return fmt.Errorf("interval: v4 record dictionary index %d out of range (%d entries)", v, len(dict))
		}
		d := dict[v]
		// Start delta.
		if len(s) != 0 && s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		start := base + clock.Time(v)
		// Duration (zigzag).
		if len(s) != 0 && s[0] < 0x80 {
			v, s = uint64(s[0]), s[1:]
		} else if v, n = binary.Uvarint(s); n > 0 {
			s = s[n:]
		} else {
			return errVarint
		}
		b.pushCommon(d.typ, d.bebits, start, clock.Time(int64(v>>1)^-int64(v&1)), d.cpu, d.node, d.thread)
		for i := 0; i < d.nx; i++ {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			b.Extras = append(b.Extras, v)
		}
		if events.VectorField(d.typ) != "" {
			if len(s) != 0 && s[0] < 0x80 {
				v, s = uint64(s[0]), s[1:]
			} else if v, n = binary.Uvarint(s); n > 0 {
				s = s[n:]
			} else {
				return errVarint
			}
			if v > uint64(len(s)) || profile.CommonSize+8*uint64(d.nx)+2+8*v > maxPayload {
				return fmt.Errorf("interval: v4 record claims a %d-element vector", v)
			}
			for nv := int(v); nv > 0; nv-- {
				if len(s) != 0 && s[0] < 0x80 {
					v, s = uint64(s[0]), s[1:]
				} else if v, n = binary.Uvarint(s); n > 0 {
					s = s[n:]
				} else {
					return errVarint
				}
				b.Vecs = append(b.Vecs, v)
			}
		}
		b.closeRow()
	}
	b.cur.buf = s
	return nil
}

// DecodeFrameBatch fills b with fe's records: from the frame-decode
// hook's cached records when one is installed, otherwise by reading and
// columnar-decoding the frame payload directly.
func (f *File) DecodeFrameBatch(fe FrameEntry, b *Batch) error {
	if f.hook != nil {
		recs, err := f.hook(f, fe)
		if err != nil {
			return err
		}
		b.FromRecords(recs)
		return nil
	}
	return f.decodeFrameBatchDirect(fe, b)
}

// decodeFrameBatchDirect reads fe into a pooled buffer (see readFrame
// for when that is safe concurrently) and columnar-decodes it into b.
func (f *File) decodeFrameBatchDirect(fe FrameEntry, b *Batch) error {
	pb := getBuf()
	defer putBuf(pb)
	buf, err := f.readFrame(fe, *pb)
	if buf != nil {
		*pb = buf[:0]
	}
	if err != nil {
		return err
	}
	return b.Decode(f.Header.HeaderVersion, fe, buf)
}
