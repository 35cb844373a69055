package slog

import (
	"fmt"
	"io"

	"tracefw/internal/clock"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/profile"
)

// Options tunes SLOG construction.
type Options struct {
	// FrameBytes is the target frame payload size (default 64 KiB); "the
	// frame size is chosen so that the display of a single frame is
	// quick".
	FrameBytes int
	// Bins is the preview bin count (default 50, matching the paper's
	// statistics table granularity).
	Bins int
	// NoCrossingCopies disables pseudo copies of frame-spanning arrows
	// (ablation; the viewer then misses arrows in middle frames).
	NoCrossingCopies bool
	// Parallel is the frame-decode worker count for both build passes
	// (<= 0 means GOMAXPROCS). The output is byte-identical for every
	// worker count: frames decode and pre-bin concurrently, while the
	// order-sensitive work (frame partitioning, arrow matching,
	// serialization) runs in the engine's deterministic frame-order
	// reduce.
	Parallel int
}

func (o Options) frameBytes() int {
	if o.FrameBytes <= 0 {
		return 64 << 10
	}
	return o.FrameBytes
}

func (o Options) bins() int {
	if o.Bins <= 0 {
		return 50
	}
	return o.Bins
}

// BuildResult summarizes a build.
type BuildResult struct {
	Frames  int
	Records int64
	Arrows  int64
	Pseudo  int64 // pseudo intervals + crossing arrow copies
}

// partitioner reproduces the frame boundaries deterministically from the
// record stream: a frame closes when its record payload reaches
// FrameBytes, or twice the bytes of its pseudo-intervals (the states
// open at its start) if that is larger. The floor keeps the pseudos of
// every frame at most half its records, so they stay linear in the
// records however many states are open at once.
type partitioner struct {
	limit int
	size  int
	floor int
}

// add accounts one record of encoded size sz, given the pseudo-interval
// bytes open before it; it returns true when the record CLOSES the
// current frame (the record still belongs to it).
func (p *partitioner) add(sz, pseudoBytes int) bool {
	if p.size == 0 {
		p.floor = 2 * pseudoBytes
	}
	p.size += sz
	if p.size >= max(p.limit, p.floor) {
		p.size = 0
		return true
	}
	return false
}

// arrowKey matches sends and receives: sequence numbers are unique per
// directed (source task, destination task) pair.
type arrowKey struct {
	srcTask, dstTask int32
	seqno            uint64
}

// taskTable maps (node, logical thread) to the owning MPI task.
type taskTable map[[2]uint16]int32

func newTaskTable(threads []interval.ThreadEntry) taskTable {
	t := make(taskTable, len(threads))
	for _, te := range threads {
		t[[2]uint16{te.Node, te.LTID}] = te.Task
	}
	return t
}

func (t taskTable) of(r *interval.Record) int32 {
	if task, ok := t[[2]uint16{r.Node, r.Thread}]; ok {
		return task
	}
	return -1
}

// Build converts a merged interval file into an SLOG file.
func Build(mf *interval.File, ws io.WriteSeeker, opts Options) (*BuildResult, error) {
	tStart, tEnd, _, err := mf.Stats()
	if err != nil {
		return nil, err
	}
	if tEnd <= tStart {
		tEnd = tStart + 1
	}
	bins := opts.bins()
	sidx := stateIndex()
	prev := &Preview{
		TStart: tStart,
		TEnd:   tEnd,
		States: events.StateTypes,
		Dur:    make([][]clock.Time, len(events.StateTypes)),
		Count:  make([]int64, len(events.StateTypes)),
	}
	for i := range prev.Dur {
		prev.Dur[i] = make([]clock.Time, bins)
	}

	// --- Pass 1: frame boundaries, preview accumulation, arrow matching.
	// Pass 1 tracks the open states too: a frame's size floor depends on
	// the pseudo-intervals pass 2 will give it.
	part := &partitioner{limit: opts.frameBytes()}
	open := merge.NewTracker()
	type frameInfo struct {
		firstIdx, lastIdx int64
		lo, hi            clock.Time
	}
	var frames []frameInfo
	newInfo := func(first int64) frameInfo {
		return frameInfo{firstIdx: first, lastIdx: -1, lo: clock.Time(1<<63 - 1), hi: clock.Time(-1 << 63)}
	}
	cur := newInfo(0)
	var arrows []Arrow
	arrowFrame := map[int]int{} // arrow index -> recv frame index (filled pass 1)
	m := &matcher{
		tasks: newTaskTable(mf.Header.Threads),
		sends: map[arrowKey]interval.Record{},
		recvs: map[arrowKey]recvHalf{},
	}

	// The preview's proportional bin allocation is the per-record O(bins)
	// hot loop, and it sums integer durations — associative, so per-frame
	// partial matrices merged in any order equal the sequential result
	// exactly. It runs in the concurrent map, which also copies the frame
	// out of its pooled batch for the reduce; everything order-sensitive
	// (arrow matching, frame partitioning) runs in the frame-order
	// reduce.
	mopts := interval.MapOptions{Parallel: opts.Parallel}
	var idx int64
	type p1partial struct {
		dur   [][]clock.Time
		count []int64
		recs  []interval.Record
	}
	err = interval.MapFilesBatches([]*interval.File{mf}, mopts,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) (*p1partial, error) {
			pp := &p1partial{
				dur:   make([][]clock.Time, len(events.StateTypes)),
				count: make([]int64, len(events.StateTypes)),
				recs:  b.Records(),
			}
			for i := range pp.dur {
				pp.dur[i] = make([]clock.Time, bins)
			}
			scratch := &Preview{TStart: tStart, TEnd: tEnd, Dur: pp.dur}
			for ri := range pp.recs {
				r := &pp.recs[ri]
				if si, ok := sidx[r.Type]; ok {
					if r.Bebits == profile.Begin || r.Bebits == profile.Complete {
						pp.count[si]++
					}
					allocate(scratch, si, r.Start, r.End(), bins)
				}
			}
			return pp, nil
		},
		func(_ int, _ interval.FrameEntry, pp *p1partial) error {
			for si := range prev.Dur {
				dst, src := prev.Dur[si], pp.dur[si]
				for b := range dst {
					dst[b] += src[b]
				}
				prev.Count[si] += pp.count[si]
			}
			for ri := range pp.recs {
				r := &pp.recs[ri]
				// Arrow matching on final pieces of p2p and wait operations.
				if r.Bebits == profile.Complete || r.Bebits == profile.End {
					m.observe(r, &arrows, arrowFrame, len(frames))
				}
				if r.Start < cur.lo {
					cur.lo = r.Start
				}
				if r.End() > cur.hi {
					cur.hi = r.End()
				}
				closes := part.add(r.EncodedSize(), open.Bytes())
				open.Observe(r)
				cur.lastIdx = idx
				if closes {
					frames = append(frames, cur)
					cur = newInfo(idx + 1)
				}
				idx++
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if cur.lastIdx >= cur.firstIdx {
		frames = append(frames, cur)
	}
	total := idx

	res := &BuildResult{Frames: len(frames), Records: total, Arrows: int64(len(arrows))}

	// Assign arrows to frames: the original goes to the frame where its
	// receive completed (recorded during pass 1); crossing pseudo copies
	// go to every earlier frame the arrow spans in time. Frame hi bounds
	// are nondecreasing (records arrive end-time ordered), so the
	// backward scan per arrow stops as soon as a frame ends before the
	// send — total work is proportional to the copies produced.
	ownArrows := make([][]int, len(frames))
	crossArrows := make([][]int, len(frames))
	for ai := range arrows {
		rf := arrowFrame[ai]
		ownArrows[rf] = append(ownArrows[rf], ai)
		if opts.NoCrossingCopies {
			continue
		}
		for f := rf - 1; f >= 0; f-- {
			if frames[f].hi <= arrows[ai].SendTime {
				break
			}
			if arrows[ai].RecvTime > frames[f].lo {
				crossArrows[f] = append(crossArrows[f], ai)
			}
		}
	}

	// --- Pass 2: serialize.
	w, err := newWriter(ws, mf, prev, len(frames))
	if err != nil {
		return nil, err
	}
	part = &partitioner{limit: opts.frameBytes()}
	trk := merge.NewTracker()
	fi := 0
	var frameRecs []interval.Record
	var lastEnd clock.Time = tStart
	frameStartStamp := tStart
	flush := func() error {
		if len(frameRecs) == 0 {
			return nil
		}
		// Pseudo intervals: enclosing open states at the frame start.
		pseudo := trk.Pseudos(frameStartStamp)
		// Arrows: originals landing in this frame; crossing copies.
		var own, crossing []Arrow
		for _, ai := range ownArrows[fi] {
			own = append(own, arrows[ai])
		}
		for _, ai := range crossArrows[fi] {
			crossing = append(crossing, arrows[ai])
		}
		res.Pseudo += int64(len(pseudo) + len(crossing))
		if err := w.writeFrame(frameRecs, pseudo, own, crossing); err != nil {
			return err
		}
		// Update tracker with the frame's records for the next frame.
		for i := range frameRecs {
			trk.Observe(&frameRecs[i])
		}
		frameRecs = frameRecs[:0]
		fi++
		frameStartStamp = lastEnd
		return nil
	}
	// Pass 2's map stage only decodes (concurrently); the serialization
	// itself consumes records in frame order inside the reduce. The map
	// copies each frame out of its pooled batch, so retaining the records
	// across SLOG frame boundaries in frameRecs is safe.
	err = interval.MapFilesBatches([]*interval.File{mf}, mopts,
		func(_ int, _ interval.FrameEntry, b *interval.Batch) ([]interval.Record, error) {
			return b.Records(), nil
		},
		func(_ int, _ interval.FrameEntry, recs []interval.Record) error {
			for ri := range recs {
				r := recs[ri]
				frameRecs = append(frameRecs, r)
				lastEnd = r.End()
				if part.add(r.EncodedSize(), trk.Bytes()) {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := w.finish(); err != nil {
		return nil, err
	}
	return res, nil
}

// allocate distributes an interval's duration proportionally across the
// preview bins it overlaps.
func allocate(p *Preview, si int, start, end clock.Time, bins int) {
	if end <= start {
		return
	}
	span := p.TEnd - p.TStart
	if span <= 0 {
		return
	}
	binDur := float64(span) / float64(bins)
	for b := 0; b < bins; b++ {
		lo := p.TStart + clock.Time(binDur*float64(b))
		hi := p.TStart + clock.Time(binDur*float64(b+1))
		if hi <= start {
			continue
		}
		if lo >= end {
			break
		}
		olo, ohi := maxT(lo, start), minT(hi, end)
		if ohi > olo {
			p.Dur[si][b] += ohi - olo
		}
	}
}

// recvHalf is a receive completion waiting for its send record.
type recvHalf struct {
	end          clock.Time
	node, thread uint16
}

// matcher pairs send records with receive completions by (source task,
// destination task, sequence number). Receive completions come from
// blocking MPI_Recv records, from MPI_Wait records carrying the matched
// envelope of an Irecv, and from the receive half of MPI_Sendrecv.
type matcher struct {
	tasks taskTable
	sends map[arrowKey]interval.Record
	recvs map[arrowKey]recvHalf
}

func (m *matcher) observe(r *interval.Record, arrows *[]Arrow, arrowFrame map[int]int, curFrame int) {
	switch r.Type {
	case events.EvMPISend, events.EvMPIIsend, events.EvMPISendrecv:
		seq, _ := r.Field(events.FieldSeqno)
		if seq != 0 {
			dst, _ := r.Field(events.FieldPeer)
			m.send(r, int32(dst), seq, arrows, arrowFrame, curFrame)
		}
		if r.Type == events.EvMPISendrecv {
			rseq, _ := r.Field(events.FieldRecvSeqno)
			if rseq != 0 {
				src, _ := r.Field(events.FieldRecvPeer)
				m.recv(r, int32(src), rseq, arrows, arrowFrame, curFrame)
			}
		}
	case events.EvMPIRecv, events.EvMPIIrecv:
		seq, _ := r.Field(events.FieldSeqno)
		if seq != 0 {
			src, _ := r.Field(events.FieldPeer)
			m.recv(r, int32(src), seq, arrows, arrowFrame, curFrame)
		}
	case events.EvMPIWait:
		seq, _ := r.Field(events.FieldRecvSeqno)
		if seq != 0 {
			src, _ := r.Field(events.FieldRecvPeer)
			m.recv(r, int32(src), seq, arrows, arrowFrame, curFrame)
		}
	case events.EvMPIWaitall:
		// The vector field holds (peer, seqno, bytes) envelope triples,
		// one per completed receive request.
		for i := 0; i+2 < len(r.Vec); i += 3 {
			if r.Vec[i+1] != 0 {
				m.recv(r, int32(uint32(r.Vec[i])), r.Vec[i+1], arrows, arrowFrame, curFrame)
			}
		}
	}
}

func (m *matcher) send(r *interval.Record, dstTask int32, seq uint64, arrows *[]Arrow, arrowFrame map[int]int, curFrame int) {
	k := arrowKey{srcTask: m.tasks.of(r), dstTask: dstTask, seqno: seq}
	if k.srcTask < 0 {
		return
	}
	if rh, ok := m.recvs[k]; ok {
		delete(m.recvs, k)
		bytes, _ := r.Field(events.FieldMsgSizeSent)
		tag, _ := r.Field(events.FieldTag)
		m.emit(arrows, arrowFrame, curFrame, Arrow{
			SendTime: r.Start, RecvTime: rh.end,
			SrcNode: r.Node, SrcThread: r.Thread,
			DstNode: rh.node, DstThread: rh.thread,
			Bytes: bytes, Tag: uint32(tag), Seqno: seq,
		})
		return
	}
	m.sends[k] = *r
}

func (m *matcher) recv(r *interval.Record, srcTask int32, seq uint64, arrows *[]Arrow, arrowFrame map[int]int, curFrame int) {
	k := arrowKey{srcTask: srcTask, dstTask: m.tasks.of(r), seqno: seq}
	if k.dstTask < 0 {
		return
	}
	if sr, ok := m.sends[k]; ok {
		delete(m.sends, k)
		bytes, _ := sr.Field(events.FieldMsgSizeSent)
		tag, _ := sr.Field(events.FieldTag)
		m.emit(arrows, arrowFrame, curFrame, Arrow{
			SendTime: sr.Start, RecvTime: r.End(),
			SrcNode: sr.Node, SrcThread: sr.Thread,
			DstNode: r.Node, DstThread: r.Thread,
			Bytes: bytes, Tag: uint32(tag), Seqno: seq,
		})
		return
	}
	m.recvs[k] = recvHalf{end: r.End(), node: r.Node, thread: r.Thread}
}

func (m *matcher) emit(arrows *[]Arrow, arrowFrame map[int]int, curFrame int, a Arrow) {
	*arrows = append(*arrows, a)
	arrowFrame[len(*arrows)-1] = curFrame
}

func frameBounds(recs, pseudo []interval.Record) (clock.Time, clock.Time) {
	lo, hi := recs[0].Start, recs[0].End()
	for _, r := range recs {
		if r.Start < lo {
			lo = r.Start
		}
		if r.End() > hi {
			hi = r.End()
		}
	}
	for _, r := range pseudo {
		if r.Start < lo {
			lo = r.Start
		}
	}
	return lo, hi
}

func maxT(a, b clock.Time) clock.Time {
	if a > b {
		return a
	}
	return b
}

func minT(a, b clock.Time) clock.Time {
	if a < b {
		return a
	}
	return b
}

var errTooManyFrames = fmt.Errorf("slog: frame count mismatch between passes")
