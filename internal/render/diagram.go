// Package render draws the visualizations of the paper's §4 without a
// GUI toolkit: the multiple time-space diagrams derivable from one
// interval file (thread-activity, processor-activity, thread-processor,
// processor-thread — §1.2), the whole-run preview histogram, and the
// statistics viewer of Figure 6, as SVG documents and as ASCII for
// terminals. The diagrams are data first (Diagram), then rendered, so
// tests can assert on structure rather than markup.
package render

import (
	"context"
	"fmt"
	"sort"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/profile"
	"tracefw/internal/slog"
)

// ViewKind selects the time-space diagram (paper §1.2).
type ViewKind int

// The four views of §1.2.
const (
	// ThreadActivity: one timeline per thread, colored by state.
	ThreadActivity ViewKind = iota
	// ProcessorActivity: one timeline per processor, colored by state.
	ProcessorActivity
	// ThreadProcessor: one timeline per thread, colored by the processor
	// it occupies — shows how threads jump among processors.
	ThreadProcessor
	// ProcessorThread: one timeline per processor, colored by the thread
	// occupying it — shows processor allocation among threads.
	ProcessorThread
	// StateActivity uses the record type as the significant discriminator
	// along the y axis (paper §1.2's "other possible views"): one
	// timeline per state type, colored by node.
	StateActivity
)

// String names the view.
func (v ViewKind) String() string {
	switch v {
	case ThreadActivity:
		return "thread-activity"
	case ProcessorActivity:
		return "processor-activity"
	case ThreadProcessor:
		return "thread-processor"
	case ProcessorThread:
		return "processor-thread"
	case StateActivity:
		return "state-activity"
	}
	return "view?"
}

// ParseView converts a command-line name.
func ParseView(s string) (ViewKind, error) {
	switch s {
	case "thread-activity", "threads", "":
		return ThreadActivity, nil
	case "processor-activity", "cpus":
		return ProcessorActivity, nil
	case "thread-processor":
		return ThreadProcessor, nil
	case "processor-thread":
		return ProcessorThread, nil
	case "state-activity", "states":
		return StateActivity, nil
	}
	return 0, fmt.Errorf("render: unknown view %q", s)
}

// Seg is one colored segment on a timeline.
type Seg struct {
	Start, End clock.Time
	Key        string // legend key (state name, CPU id, thread id)
	// Depth is the nesting level in the Connected thread-activity view
	// (0 = outermost): the paper's "view with connected and nested
	// states". Deeper states render inset on top of their enclosing
	// states. Always 0 in the pieces views.
	Depth int
}

// Timeline is one row of a diagram.
type Timeline struct {
	Label string
	Segs  []Seg
}

// ArrowSeg is a message arrow mapped onto diagram rows.
type ArrowSeg struct {
	FromRow, ToRow int
	Send, Recv     clock.Time
}

// Diagram is a fully prepared time-space diagram.
type Diagram struct {
	Kind   ViewKind
	T0, T1 clock.Time
	Rows   []Timeline
	Keys   []string // legend, in first-seen deterministic order
	Arrows []ArrowSeg
}

// Options controls diagram construction.
type Options struct {
	// Window selects [T0, T1); zero values select the whole run.
	T0, T1 clock.Time
	// Connected merges the begin/continuation/end pieces of each state
	// into one segment spanning the whole call (the paper's "view with
	// connected and nested states"); the default shows raw pieces.
	Connected bool
	// Arrows overlays message arrows (thread rows only).
	Arrows []slog.Arrow
	// Parallel is the frame-decode worker count (<= 0 = GOMAXPROCS);
	// the diagram is identical for every value.
	Parallel int
	// Context, when non-nil, aborts construction once it is cancelled
	// (checked per frame by the map-reduce engine). The trace query
	// service sets it to the request context; CLIs leave it nil.
	Context context.Context
}

type rowKey struct {
	node uint16
	id   uint16 // thread or cpu
}

// BuildDiagram prepares a view from a merged interval file.
func BuildDiagram(mf *interval.File, kind ViewKind, opts Options) (*Diagram, error) {
	t0, t1 := opts.T0, opts.T1
	if t1 <= t0 {
		fs, fe, _, err := mf.Stats()
		if err != nil {
			return nil, err
		}
		t0, t1 = fs, fe
	}
	d := &Diagram{Kind: kind, T0: t0, T1: t1}

	rows := map[rowKey]int{}
	var rowOrder []rowKey
	threadRows := kind == ThreadActivity || kind == ThreadProcessor
	// Pre-seed thread rows from the thread table so idle threads appear
	// (Figure 8's point: "one thread is idle during this part").
	if threadRows {
		for _, te := range mf.Header.Threads {
			k := rowKey{te.Node, te.LTID}
			if _, ok := rows[k]; !ok {
				rows[k] = len(rowOrder)
				rowOrder = append(rowOrder, k)
			}
		}
	}
	keyIdx := map[string]int{}
	addKey := func(s string) {
		if _, ok := keyIdx[s]; !ok {
			keyIdx[s] = len(d.Keys)
			d.Keys = append(d.Keys, s)
		}
	}
	segs := map[rowKey][]Seg{}

	// open tracks in-progress calls for the Connected option.
	type openState struct {
		start clock.Time
		key   string
		depth int
	}
	open := map[rowKey][]openState{}

	// Frames decode concurrently on the map-reduce engine; the
	// order-sensitive row/segment construction below runs in the
	// frame-order reduce, so the diagram matches a sequential scan
	// exactly. An explicit window skips non-overlapping frames entirely
	// — except in Connected mode, which must see Begin pieces recorded
	// before the window opens.
	mopts := interval.MapOptions{Parallel: opts.Parallel, Context: opts.Context}
	if opts.T1 > opts.T0 && !(opts.Connected && kind == ThreadActivity) {
		mopts.Window, mopts.Lo, mopts.Hi = true, t0, t1
	}
	err := interval.MapFilesBatches([]*interval.File{mf}, mopts,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) ([]interval.Record, error) {
			return b.Records(), nil
		},
		func(_ int, _ interval.FrameEntry, recs []interval.Record) error {
			for ri := range recs {
				r := recs[ri]
				if r.Type == events.EvGlobalClock {
					continue
				}
				var k rowKey
				var key string
				switch kind {
				case ThreadActivity:
					k = rowKey{r.Node, r.Thread}
					key = r.Type.Name()
				case ProcessorActivity:
					k = rowKey{r.Node, r.CPU}
					key = r.Type.Name()
				case ThreadProcessor:
					k = rowKey{r.Node, r.Thread}
					key = fmt.Sprintf("cpu%d", r.CPU)
				case ProcessorThread:
					k = rowKey{r.Node, r.CPU}
					key = fmt.Sprintf("thread%d", r.Thread)
				case StateActivity:
					k = rowKey{0, uint16(r.Type)}
					key = fmt.Sprintf("node%d", r.Node)
				}
				if opts.Connected && kind == ThreadActivity {
					switch r.Bebits {
					case profile.Begin:
						open[k] = append(open[k], openState{start: r.Start, key: key, depth: len(open[k])})
						continue
					case profile.Continuation:
						continue
					case profile.End:
						stack := open[k]
						merged := false
						for i := len(stack) - 1; i >= 0; i-- {
							if stack[i].key == key {
								seg := Seg{Start: stack[i].start, End: r.End(), Key: key, Depth: stack[i].depth}
								open[k] = append(stack[:i], stack[i+1:]...)
								if seg.End >= t0 && seg.Start <= t1 {
									addKey(key)
									ensureRow(rows, &rowOrder, k)
									segs[k] = append(segs[k], seg)
								}
								merged = true
								break
							}
						}
						if merged {
							continue
						}
					}
				}
				if r.End() < t0 || r.Start > t1 {
					continue
				}
				seg := Seg{Start: r.Start, End: r.End(), Key: key}
				if opts.Connected && kind == ThreadActivity {
					// Complete records nest inside whatever is currently open.
					seg.Depth = len(open[k])
				}
				addKey(key)
				ensureRow(rows, &rowOrder, k)
				segs[k] = append(segs[k], seg)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}

	// Deterministic row order: (node, id).
	sort.SliceStable(rowOrder, func(i, j int) bool {
		if rowOrder[i].node != rowOrder[j].node {
			return rowOrder[i].node < rowOrder[j].node
		}
		return rowOrder[i].id < rowOrder[j].id
	})
	finalIdx := map[rowKey]int{}
	for i, k := range rowOrder {
		finalIdx[k] = i
		label := ""
		switch kind {
		case ThreadActivity, ThreadProcessor:
			label = fmt.Sprintf("n%d/t%d", k.node, k.id)
		case StateActivity:
			label = events.Type(k.id).Name()
		default:
			label = fmt.Sprintf("n%d/cpu%d", k.node, k.id)
		}
		ss := segs[k]
		// Order by start time, outer states first at equal starts, so
		// renderers can paint in slice order and nested states land on
		// top of their enclosing states.
		sort.SliceStable(ss, func(a, b int) bool {
			if ss[a].Start != ss[b].Start {
				return ss[a].Start < ss[b].Start
			}
			return ss[a].Depth < ss[b].Depth
		})
		d.Rows = append(d.Rows, Timeline{Label: label, Segs: ss})
	}
	sort.Strings(d.Keys)

	if threadRows {
		for _, a := range opts.Arrows {
			if a.RecvTime <= t0 || a.SendTime >= t1 {
				continue
			}
			fi, ok1 := finalIdx[rowKey{a.SrcNode, a.SrcThread}]
			ti, ok2 := finalIdx[rowKey{a.DstNode, a.DstThread}]
			if ok1 && ok2 {
				d.Arrows = append(d.Arrows, ArrowSeg{FromRow: fi, ToRow: ti, Send: a.SendTime, Recv: a.RecvTime})
			}
		}
	}
	return d, nil
}

func ensureRow(rows map[rowKey]int, order *[]rowKey, k rowKey) {
	if _, ok := rows[k]; !ok {
		rows[k] = len(*order)
		*order = append(*order, k)
	}
}

// BusyFraction returns, per row, the fraction of the window covered by
// segments whose key is not one of the idle keys. Used by experiments to
// summarize a view numerically (e.g. Figure 9's "CPUs are mostly idle").
func (d *Diagram) BusyFraction(idleKeys ...string) []float64 {
	idle := map[string]bool{}
	for _, k := range idleKeys {
		idle[k] = true
	}
	span := float64(d.T1 - d.T0)
	out := make([]float64, len(d.Rows))
	if span <= 0 {
		return out
	}
	for i, row := range d.Rows {
		var busy clock.Time
		for _, s := range row.Segs {
			if idle[s.Key] {
				continue
			}
			lo, hi := s.Start, s.End
			if lo < d.T0 {
				lo = d.T0
			}
			if hi > d.T1 {
				hi = d.T1
			}
			if hi > lo {
				busy += hi - lo
			}
		}
		out[i] = float64(busy) / span
	}
	return out
}

// DistinctKeysPerRow reports how many distinct keys each row uses —
// e.g. in a thread-processor view, the number of CPUs a thread visited
// (the migration the paper points out in Figure 9).
func (d *Diagram) DistinctKeysPerRow() []int {
	out := make([]int, len(d.Rows))
	for i, row := range d.Rows {
		seen := map[string]bool{}
		for _, s := range row.Segs {
			seen[s.Key] = true
		}
		out[i] = len(seen)
	}
	return out
}
