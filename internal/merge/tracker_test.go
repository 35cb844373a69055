package merge_test

import (
	"reflect"
	"sort"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
	"tracefw/internal/xrand"
)

// refTracker is the straightforward open-state model: per-thread stacks
// of deep-copied records in a map, sorted by thread on every query.
type refTracker map[[2]uint16][]interval.Record

func (t refTracker) observe(r *interval.Record) {
	if r.Type == events.EvGlobalClock {
		return
	}
	k := [2]uint16{r.Node, r.Thread}
	switch r.Bebits {
	case profile.Begin:
		cp := *r
		cp.Extra = append([]uint64(nil), r.Extra...)
		cp.Vec = append([]uint64(nil), r.Vec...)
		t[k] = append(t[k], cp)
	case profile.End:
		stack := t[k]
		for i := len(stack) - 1; i >= 0; i-- {
			if stack[i].Type == r.Type {
				t[k] = append(stack[:i], stack[i+1:]...)
				return
			}
		}
	}
}

func (t refTracker) pseudos(at clock.Time) []interval.Record {
	var keys [][2]uint16
	for k, stack := range t {
		if len(stack) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var out []interval.Record
	for _, k := range keys {
		for _, st := range t[k] {
			st.Bebits = profile.Continuation
			st.Start, st.Dura = at, 0
			out = append(out, st)
		}
	}
	return out
}

// canon maps empty payloads to nil so the comparison sees content only.
func canon(recs []interval.Record) []interval.Record {
	out := make([]interval.Record, len(recs))
	for i, r := range recs {
		if len(r.Extra) == 0 {
			r.Extra = nil
		}
		if len(r.Vec) == 0 {
			r.Vec = nil
		}
		out[i] = r
	}
	return out
}

// TestTrackerMatchesReference drives the tracker and the reference model
// with random begin/end/complete pieces on a few threads, closing states
// out of stack order too, and compares the pseudo-intervals and their
// byte count after every record. The input record's payload slices are
// scribbled over after each Observe, as a read-ahead source recycling
// its batch slots would.
func TestTrackerMatchesReference(t *testing.T) {
	types := []events.Type{events.EvMPISend, events.EvMarkerState, events.EvMPIWaitall, events.EvRunning}
	rng := xrand.New(13)
	trk, ref := merge.NewTracker(), refTracker{}
	extra := make([]uint64, 8)
	vec := make([]uint64, 9)
	for i := 0; i < 3000; i++ {
		r := interval.Record{
			Type:   types[rng.Intn(len(types))],
			Bebits: []profile.Bebits{profile.Begin, profile.End, profile.Complete}[rng.Intn(3)],
			Start:  clock.Time(i),
			Node:   uint16(rng.Intn(3)),
			Thread: uint16(rng.Intn(3)),
		}
		for j := range extra {
			extra[j] = rng.Uint64()
		}
		r.Extra = extra[:rng.Intn(len(extra)+1)]
		if events.VectorField(r.Type) != "" {
			for j := range vec {
				vec[j] = rng.Uint64()
			}
			r.Vec = vec[:rng.Intn(len(vec)+1)]
		}
		trk.Observe(&r)
		ref.observe(&r)
		clear(extra)
		clear(vec)

		got, want := trk.Pseudos(clock.Time(i)), ref.pseudos(clock.Time(i))
		if !reflect.DeepEqual(canon(got), canon(want)) {
			t.Fatalf("record %d: pseudos differ:\n got %v\nwant %v", i, got, want)
		}
		bytes := 0
		for j := range want {
			bytes += want[j].EncodedSize()
		}
		if trk.Bytes() != bytes {
			t.Fatalf("record %d: Bytes() = %d, pseudos encode to %d", i, trk.Bytes(), bytes)
		}
	}
}
