package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call into a layer. Spans of one request share Req, the ID
// of its root span; Parent is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Setup  bool   `json:"setup,omitempty"`
}

// layer is the span name up to its first dot ("merge", "tracesvc").
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	on    atomic.Bool // record spans now
	setup atomic.Bool // spans belong to set-up

	mu    sync.Mutex
	spans []span // ID i is spans[i-1]
	conns map[string]uint64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), conns: map[string]uint64{}}
}

// phase switches between set-up (recorded, but outside the self-time
// shares) and timed operations.
func (t *tracer) phase(setup bool) {
	t.setup.Store(setup)
	t.on.Store(setup)
}

// begin opens a span in its parent's request; it returns 0 (and
// records nothing) while tracing is off.
func (t *tracer) begin(name string, parent uint64) uint64 { return t.open(name, parent, false) }

// beginRequest opens the root span of a new request under parent.
func (t *tracer) beginRequest(name string, parent uint64) uint64 { return t.open(name, parent, true) }

func (t *tracer) open(name string, parent uint64, newReq bool) uint64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	req := id
	if parent != 0 && !newReq {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1, Setup: t.setup.Load()})
	return id
}

// end closes a span; closing it again changes nothing.
func (t *tracer) end(id uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	if t.spans[id-1].End < 0 {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// linkConn remembers that the client connection with local address addr
// now carries a request of span id, so the server side of that
// connection can parent its span to it.
func (t *tracer) linkConn(addr string, id uint64) {
	t.mu.Lock()
	t.conns[addr] = id
	t.mu.Unlock()
}

func (t *tracer) unlinkConns(addrs []string) {
	t.mu.Lock()
	for _, a := range addrs {
		delete(t.conns, a)
	}
	t.mu.Unlock()
}

func (t *tracer) connParent(remoteAddr string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[remoteAddr]
}

// selfTimes sums each layer's self time over the spans of timed
// operations: a span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[uint64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Setup || s.End < 0 {
			continue
		}
		d := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		self[s.layer()] += float64(d) / 1e9
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var n, cur int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			n += b - a
			cur = b
		}
	}
	return n
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSelfTimes writes the per-layer self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	total := 0.0
	names := make([]string, 0, len(self))
	for l, v := range self {
		names = append(names, l)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "perfbench: self time by layer over traced operations (%d spans)\n", len(t.spans))
	for _, l := range names {
		fmt.Fprintf(w, "  %-10s %9.3fs %6.1f%%\n", l, self[l], 100*div(self[l], total))
	}
}
