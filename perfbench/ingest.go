package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tracefw/internal/events"
	"tracefw/internal/ingest"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
	"tracefw/internal/trace"
	"tracefw/internal/tracesvc"
)

// ingestBench streams a pre-generated storm trace into the query
// service's ingest endpoint while a second client queries the live
// trace: the only workload that runs incremental convert, the live
// merge and seal, and cache reuse across seal generations. Each
// operation is one whole ingest session; its sealed file must be
// byte-identical to batch convert→merge of the same streams.
type ingestBench struct {
	e       *env
	batches []rawBatch
	nodes   int
	events  int64
	ref     []byte // batch convert→merge of the same streams
	records int64
	svc     *tracesvc.Service
	mgr     *ingest.Manager
	srv     *server
	client  *http.Client
	n       int // sessions begun

	sessions []float64 // seconds per session
	live     []float64 // seconds per answered live query
	liveSecs float64
}

// rawBatch is one POST: a node's preamble (seq 0) or a slice of its raw
// stream.
type rawBatch struct {
	node, seq int
	last      bool
	data      []byte
}

func newIngest(e *env) bench {
	return &ingestBench{e: e, client: &http.Client{Timeout: time.Minute}}
}

func (b *ingestBench) setup() error {
	e, sz := b.e, b.e.sz
	raws, err := e.storm(0, sz.ingestNodes, sz.ingestTasks, sz.ingestIters, e.seed)
	if err != nil {
		return err
	}
	b.nodes = len(raws)
	for node, raw := range raws {
		bs, n, err := splitRaw(node, raw, sz.ingestBatchBytes)
		if err != nil {
			return err
		}
		b.batches = append(b.batches, bs...)
		b.events += n
	}
	// Round-robin over the nodes, so that no node runs further ahead of
	// the others than one batch: the live merge needs every node's next
	// record, and a POST into a node's full queue blocks until it gets
	// it.
	sort.SliceStable(b.batches, func(i, j int) bool { return b.batches[i].seq < b.batches[j].seq })

	files, evs, err := e.convertRaws(0, raws, 0)
	if err != nil {
		return err
	}
	ref, mres, err := e.mergeFiles(0, files, evs, merge.Options{Estimator: merge.EstimatorNone})
	if err != nil {
		return err
	}
	b.ref, b.records = ref, mres.Records

	dir := filepath.Join(e.dir, "ingest")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if b.mgr, err = ingest.NewManager(ingest.Config{Dir: dir}); err != nil {
		return err
	}
	b.svc = tracesvc.New(tracesvc.Config{})
	b.svc.EnableIngest(b.mgr)
	b.svc.SetReady()
	b.srv, err = startServer(e.traceHandler("tracesvc", b.svc.Handler(), func() uint64 { return 0 }))
	return err
}

// splitRaw cuts one node's raw trace into its preamble (the header and
// every record up to the last thread-info or marker definition) and
// slices of size bytes, and counts its events.
func splitRaw(node int, raw []byte, size int) ([]rawBatch, int64, error) {
	off, cut := trace.RawHeaderSize, trace.RawHeaderSize
	var n int64
	for ; off < len(raw); n++ {
		rec, k, err := trace.Decode(raw[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("node %d: %w", node, err)
		}
		off += k
		if rec.Type == events.EvThreadInfo || rec.Type == events.EvMarkerDefine {
			cut = off
		}
	}
	out := []rawBatch{{node: node, data: raw[:cut]}}
	for lo := cut; lo < len(raw); lo += size {
		out = append(out, rawBatch{node: node, seq: len(out), data: raw[lo:min(lo+size, len(raw))]})
	}
	out[len(out)-1].last = true
	return out, n, nil
}

// op runs one ingest session from begin to the sealed file, with the
// live reader running alongside.
func (b *ingestBench) op(r *result, traced bool) error {
	e := b.e
	name := fmt.Sprintf("s%d", b.n)
	b.n++
	base := b.srv.url + "/v1/ingest/" + name
	ctx := context.Background()
	seals0 := b.mgr.Stats().Seals
	c0 := b.svc.Cache().Stats()

	root := e.tr.begin("bench.ingest", 0)
	sw := startWatch()
	body, err := do(ctx, b.client, "POST", fmt.Sprintf("%s?op=begin&nodes=%d", base, b.nodes), nil, http.StatusCreated)
	if err != nil {
		e.tr.end(root)
		return fmt.Errorf("begin ingest: %w", err)
	}
	var began struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &began); err != nil || began.ID == "" {
		e.tr.end(root)
		return fmt.Errorf("begin ingest: bad response %q", body)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var live liveStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		live = b.readLive(root, began.ID, stop)
	}()

	var postErr error
	for _, bt := range b.batches {
		url := fmt.Sprintf("%s?node=%d&seq=%d", base, bt.node, bt.seq)
		if bt.last {
			url += "&last=1"
		}
		err := e.call(root, "ingest.batch", func(uint64) error {
			_, err := do(ctx, b.client, "POST", url, bt.data, http.StatusAccepted)
			return err
		})
		r.check("ingest batch", err)
		if err != nil {
			postErr = err
			break
		}
	}
	sess, ok := b.mgr.Get(name)
	if !ok {
		postErr = fmt.Errorf("session %s vanished", name)
	} else if postErr != nil {
		sess.Abort()
		sess.Wait()
	} else {
		postErr = e.call(root, "ingest.wait", func(uint64) error { return sess.Wait() })
	}
	elapsed, stolen := sw.elapsed()
	close(stop)
	wg.Wait()
	e.tr.end(root)

	r.attempted += live.answered + live.failed
	r.failed += live.failed
	e.add("client.queries", float64(live.answered+live.failed+live.retries))
	e.add("ingest.live_queries", float64(live.answered+live.failed+live.retries))
	e.add("ingest.live_retries", float64(live.retries))
	e.add("ingest.sessions", 1)
	e.add("ingest.seals", float64(b.mgr.Stats().Seals-seals0))
	e.addCache(c0, b.svc.Cache().Stats())

	err = postErr
	if err == nil {
		err = b.checkSealed(sess.Path())
	}
	r.check("sealed file", err)
	if err == nil {
		b.sessions = append(b.sessions, elapsed)
		// The live queries ran inside the session: they lose its
		// stolen share.
		for _, l := range live.lat {
			b.live = append(b.live, l*(1-stolen))
		}
		b.liveSecs += elapsed
	}
	// Drop the finished trace so sessions do not pile up; a failure here
	// cannot change this session's result.
	_, _ = do(ctx, b.client, "DELETE", b.srv.url+"/v1/traces/"+began.ID, nil, http.StatusNoContent)
	b.mgr.Remove(name)
	if sess != nil {
		os.Remove(sess.Path())
	}
	return nil
}

// checkSealed compares the sealed file with the batch reference and
// opens it as an interval file.
func (b *ingestBench) checkSealed(path string) error {
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if b.e.corrupt {
		got[len(got)/2] ^= 0xff
	}
	if !bytes.Equal(got, b.ref) {
		return fmt.Errorf("sealed file (%d bytes) differs from batch convert→merge (%d bytes)", len(got), len(b.ref))
	}
	return b.e.call(0, "interval.open", func(uint64) error {
		f, err := interval.Open(path)
		if err == nil {
			f.Close()
		}
		return err
	})
}

type liveStats struct {
	answered, failed, retries int
	lat                       []float64
}

// readLive queries the live trace in a closed loop, cycling through the
// load mix, until stop closes and at least one query was answered. A
// 503 means no frame has sealed yet: it counts as a retry, not a
// failure, and the reader backs off briefly.
func (b *ingestBench) readLive(root uint64, id string, stop <-chan struct{}) liveStats {
	var st liveStats
	var deadline time.Time // set once stop closes
	for i := 0; ; i++ {
		if deadline.IsZero() {
			select {
			case <-stop:
				deadline = time.Now().Add(time.Second)
			default:
			}
		}
		// Once the session is sealed, stop after the first answer; a
		// session shorter than the first seal still gets one.
		if !deadline.IsZero() && (st.answered > 0 || time.Now().After(deadline)) {
			return st
		}
		url := b.srv.url + "/v1/traces/" + id + mixQueries[i%len(mixQueries)]
		span := b.e.tr.beginRequest("bench.live", root)
		ctx, unlink := b.e.linkConns(context.Background(), span)
		t0 := time.Now()
		_, err := get(ctx, b.client, url)
		d := time.Since(t0)
		unlink()
		b.e.tr.end(span)
		switch {
		case err == nil:
			st.answered++
			st.lat = append(st.lat, d.Seconds())
		case isStatus(err, http.StatusServiceUnavailable):
			st.retries++
			time.Sleep(2 * time.Millisecond)
		default:
			st.failed++
			fmt.Fprintf(stderr, "perfbench: live query: %v\n", err)
		}
	}
}

func (b *ingestBench) report(r *result) {
	m := r.metrics
	m["events_per_s"] = div(float64(b.events), median(b.sessions))
	m["records_per_event"] = div(float64(b.records), float64(b.events))
	m["query_qps"] = div(float64(len(b.live)), b.liveSecs)
	m["query_p50_ms"] = 1e3 * median(b.live)
	m["query_p95_ms"] = 1e3 * quantile(b.live, 0.95)
}

func (b *ingestBench) reset() { b.sessions, b.live, b.liveSecs = nil, nil, 0 }

func (b *ingestBench) close() {
	b.srv.stop()
	if b.svc != nil {
		b.svc.Close()
	}
	b.client.CloseIdleConnections()
}
