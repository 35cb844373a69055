package interval

import (
	"fmt"

	"tracefw/internal/profile"
)

// ValidationReport summarizes a Validate pass.
type ValidationReport struct {
	Records int64
	Frames  int
	Dirs    int
}

// Validate walks an entire interval file and checks its structural
// invariants: frame directory links are consistent in both directions,
// every frame's byte size, record count and time bounds match its
// records, records are in ascending end-time order across the whole
// file, and (when a profile is supplied) every record matches its
// specification exactly. It returns a report on success.
func (f *File) Validate(p *profile.Profile) (*ValidationReport, error) {
	rep := &ValidationReport{}
	if p != nil && p.Version != f.Header.ProfileVersion {
		return nil, fmt.Errorf("interval: file profile version %#x does not match profile %#x",
			f.Header.ProfileVersion, p.Version)
	}
	dirs, err := f.Dirs()
	if err != nil {
		return nil, err
	}
	rep.Dirs = len(dirs)
	for i, d := range dirs {
		if i == 0 && d.Prev != 0 {
			return nil, fmt.Errorf("interval: first directory has prev %d", d.Prev)
		}
		if i > 0 && d.Prev != dirs[i-1].Offset {
			return nil, fmt.Errorf("interval: directory %d prev %d, want %d", i, d.Prev, dirs[i-1].Offset)
		}
		if i < len(dirs)-1 && d.Next != dirs[i+1].Offset {
			return nil, fmt.Errorf("interval: directory %d next %d, want %d", i, d.Next, dirs[i+1].Offset)
		}
		if i == len(dirs)-1 && d.Next != 0 {
			return nil, fmt.Errorf("interval: last directory has next %d", d.Next)
		}
		// Check the header's aggregate bounds against the entries they
		// summarize (on version 1 they are derived from the entries, so
		// they agree by construction).
		if lo, hi, n := entriesBounds(d.Entries); d.Start != lo || d.End != hi || d.Records != n {
			return nil, fmt.Errorf("interval: directory %d aggregates [%d %d] %d records, entries say [%d %d] %d",
				i, d.Start, d.End, d.Records, lo, hi, n)
		}
	}

	lastEnd := int64(-1 << 62)
	var (
		cur  frameCursor
		rec  Record
		pbuf []byte
	)
	for _, d := range dirs {
		for fi, fe := range d.Entries {
			buf, err := f.ReadFrame(fe)
			if err != nil {
				return nil, err
			}
			if err := cur.init(f.Header.HeaderVersion, buf); err != nil {
				return nil, fmt.Errorf("interval: frame %d at %d: %w", fi, fe.Offset, err)
			}
			var n uint32
			first := true
			var lo, hi int64
			for len(cur.buf) > 0 {
				if err := cur.next(&rec, nil); err != nil {
					return nil, fmt.Errorf("interval: frame %d at %d: %w", fi, fe.Offset, err)
				}
				if p != nil {
					// The profile describes the fixed-width layout; on v4
					// frames check it against the synthesized payload, which
					// is what any profile-driven consumer would see.
					payload := cur.payload
					if payload == nil {
						pbuf = rec.AppendPayload(pbuf[:0])
						payload = pbuf
					}
					spec := p.Lookup(rec.Type, rec.Bebits)
					if spec == nil {
						return nil, fmt.Errorf("interval: no profile spec for %s/%s", rec.Type.Name(), rec.Bebits)
					}
					sz, err := spec.Size(payload)
					if err != nil {
						return nil, err
					}
					if sz != len(payload) {
						return nil, fmt.Errorf("interval: %s record is %d bytes, spec says %d",
							rec.Type.Name(), len(payload), sz)
					}
				}
				end := int64(rec.End())
				if end < lastEnd {
					return nil, fmt.Errorf("interval: record end %d before previous %d", end, lastEnd)
				}
				lastEnd = end
				if first || int64(rec.Start) < lo {
					lo = int64(rec.Start)
				}
				if first || end > hi {
					hi = end
				}
				first = false
				n++
			}
			if n != fe.Records {
				return nil, fmt.Errorf("interval: frame claims %d records, found %d", fe.Records, n)
			}
			if n > 0 && (int64(fe.Start) != lo || int64(fe.End) != hi) {
				return nil, fmt.Errorf("interval: frame bounds [%d %d], records say [%d %d]",
					fe.Start, fe.End, lo, hi)
			}
			rep.Records += int64(n)
			rep.Frames++
		}
	}
	return rep, nil
}
