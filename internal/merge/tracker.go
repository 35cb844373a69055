package merge

import (
	"slices"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
)

// openKey identifies a thread across the whole machine.
type openKey struct {
	node, thread uint16
}

// byKey orders thread stacks by (node, thread) for binary search.
func byKey(st *threadStack, k openKey) int {
	if st.key.node != k.node {
		return int(st.key.node) - int(k.node)
	}
	return int(st.key.thread) - int(k.thread)
}

// openState is one open state on a thread's stack. Its Extra and Vec
// payloads live in the stack's arena at [off, off+nExtra+nVec).
type openState struct {
	rec          interval.Record // Extra and Vec cleared
	off          int
	nExtra, nVec int
	size         int // fixed-width encoded size, as a continuation too
}

// threadStack holds one thread's open states, outer to inner, and an
// arena owning their variable-length payloads. The arena is reused as
// states open and close, so steady-state tracking allocates nothing.
type threadStack struct {
	key    openKey
	states []openState
	arena  []uint64
}

// Tracker reconstructs, from an end-time-ordered record stream, which
// states are open on every thread, and turns them into the zero-duration
// continuation pseudo-intervals planted at the start of every frame
// (paper §3.3). The merge plants them in the merged interval file and
// the SLOG builder in every SLOG frame; both use this one type, so the
// two formats agree on the open set at every frame start.
type Tracker struct {
	threads map[openKey]*threadStack
	// active holds the threads with at least one open state, kept
	// sorted by (node, thread) as states open and close.
	active []*threadStack
	bytes  int               // fixed-width encoded size of Pseudos' records
	out    []interval.Record // Pseudos' result, reused across calls
}

// NewTracker returns a tracker with no open states.
func NewTracker() *Tracker {
	return &Tracker{threads: make(map[openKey]*threadStack)}
}

// Observe updates the open set with one record: a begin piece opens a
// state on its thread, an end piece closes the innermost open state of
// the same type. Global-clock records are ignored. The record's Extra
// and Vec are copied, so the caller may reuse them afterwards (read-ahead
// sources recycle their batch slots).
func (t *Tracker) Observe(r *interval.Record) {
	if r.Type == events.EvGlobalClock {
		return
	}
	switch r.Bebits {
	case profile.Begin:
		k := openKey{r.Node, r.Thread}
		st := t.threads[k]
		if st == nil {
			st = &threadStack{key: k}
			t.threads[k] = st
		}
		if len(st.states) == 0 {
			i, _ := slices.BinarySearchFunc(t.active, k, byKey)
			t.active = slices.Insert(t.active, i, st)
		}
		s := openState{rec: *r, off: len(st.arena), nExtra: len(r.Extra), nVec: len(r.Vec), size: r.EncodedSize()}
		s.rec.Extra, s.rec.Vec = nil, nil
		st.arena = append(append(st.arena, r.Extra...), r.Vec...)
		st.states = append(st.states, s)
		t.bytes += s.size
	case profile.End:
		st := t.threads[openKey{r.Node, r.Thread}]
		if st == nil {
			return
		}
		for i := len(st.states) - 1; i >= 0; i-- {
			if st.states[i].rec.Type == r.Type {
				t.close(st, i)
				return
			}
		}
	}
}

// close removes state i from st, compacting the arena behind it.
func (t *Tracker) close(st *threadStack, i int) {
	s := st.states[i]
	t.bytes -= s.size
	n := s.nExtra + s.nVec
	st.arena = slices.Delete(st.arena, s.off, s.off+n)
	for j := i + 1; j < len(st.states); j++ {
		st.states[j].off -= n
	}
	st.states = slices.Delete(st.states, i, i+1)
	if len(st.states) == 0 {
		i, _ := slices.BinarySearchFunc(t.active, st.key, byKey)
		t.active = slices.Delete(t.active, i, i+1)
	}
}

// record materializes an open state with its payload from the arena.
func (st *threadStack) record(s openState) interval.Record {
	r := s.rec
	if s.nExtra > 0 {
		r.Extra = st.arena[s.off : s.off+s.nExtra : s.off+s.nExtra]
	}
	if s.nVec > 0 {
		end := s.off + s.nExtra + s.nVec
		r.Vec = st.arena[s.off+s.nExtra : end : end]
	}
	return r
}

// Bytes is the fixed-width encoded size of the records Pseudos would
// return now: the prologue cost of a frame opened at this point.
func (t *Tracker) Bytes() int { return t.bytes }

// Pseudos returns zero-duration continuation records for every open
// state, stamped at, ordered (node, thread, outer→inner). The slice and
// the records' Extra/Vec payloads belong to the tracker: they are valid
// until the next Observe or Pseudos call.
func (t *Tracker) Pseudos(at clock.Time) []interval.Record {
	t.out = t.out[:0]
	for _, st := range t.active {
		for _, s := range st.states {
			pr := st.record(s)
			pr.Bebits = profile.Continuation
			pr.Start = at
			pr.Dura = 0
			t.out = append(t.out, pr)
		}
	}
	return t.out
}
