package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tracefw/internal/interval"
	"tracefw/internal/load"
	"tracefw/internal/merge"
	"tracefw/internal/shard"
	"tracefw/internal/tracesvc"
	"tracefw/internal/xrand"
)

// serveBench puts a shard router in front of two query-service backends
// on loopback, serving merged storm traces with pyramid sidecars, and
// drives it with the load generator's default mix from one closed-loop
// client. The backends' cache budget is a third of the decoded working
// set, so the decoded-frame cache, the kernels and the router legs do
// the work; convert and merge run only in set-up.
type serveBench struct {
	e        *env
	paths    []string
	events   []int64 // raw events per trace
	records  int64
	svcs     []*tracesvc.Service
	backends []*server
	router   *server
	rt       *shard.Router
	localID  []map[string]string // backend -> path -> trace ID
	infos    []tracesvc.TraceInfo
	client   *http.Client
	rng      *xrand.Rand
	loadSpan atomic.Uint64 // span of the load.Run call in flight
	calls    int           // load.Run calls made

	warmReqs   int
	warmSecs   float64
	p50s, p95s []float64
}

func newServe(e *env) bench {
	return &serveBench{e: e, client: &http.Client{Timeout: time.Minute}, rng: xrand.New(e.seed)}
}

func (b *serveBench) setup() error {
	e, sz := b.e, b.e.sz
	for i := 0; i < sz.serveTraces; i++ {
		raws, err := e.storm(0, sz.serveNodes, sz.serveTasks, sz.serveIters, e.seed*1009+uint64(i))
		if err != nil {
			return err
		}
		files, evs, err := e.convertRaws(0, raws, 0)
		if err != nil {
			return err
		}
		merged, mres, err := e.mergeFiles(0, files, evs, merge.Options{})
		if err != nil {
			return err
		}
		path := filepath.Join(e.dir, fmt.Sprintf("serve%d.ute", i))
		if err := os.WriteFile(path, merged, 0o644); err != nil {
			return err
		}
		err = e.call(0, "interval.pyramid", func(uint64) error {
			_, err := interval.BuildPyramidSidecar(path, interval.PyramidOptions{})
			return err
		})
		if err != nil {
			return fmt.Errorf("pyramid: %w", err)
		}
		var f *interval.File
		err = e.call(0, "interval.open", func(uint64) (err error) {
			f, err = interval.Open(path)
			return err
		})
		if err != nil {
			return err
		}
		_, _, n, err := f.Stats()
		f.Close()
		if err != nil {
			return err
		}
		if n != mres.Records {
			return fmt.Errorf("trace %d: file has %d records, merge wrote %d", i, n, mres.Records)
		}
		b.paths = append(b.paths, path)
		b.events = append(b.events, evs)
		b.records += n
	}
	if e.tr != nil {
		if err := b.measureCacheBytes(); err != nil {
			return err
		}
	}

	var backends []shard.Backend
	for i := 0; i < 2; i++ {
		svc := tracesvc.New(tracesvc.Config{CacheBytes: sz.serveCacheBytes})
		svc.SetReady()
		b.svcs = append(b.svcs, svc)
		s, err := startServer(e.traceHandler("tracesvc", svc.Handler(), b.loadSpan.Load))
		if err != nil {
			return err
		}
		b.backends = append(b.backends, s)
		backends = append(backends, shard.Backend{Name: fmt.Sprintf("b%d", i), URL: s.url})
	}
	rt, err := shard.NewRouter(shard.Config{Backends: backends, SplitFrames: sz.serveSplitFrames})
	if err != nil {
		return err
	}
	b.rt = rt
	if b.router, err = startServer(e.traceHandler("shard", rt.Handler(), b.loadSpan.Load)); err != nil {
		return err
	}
	ctx := context.Background()
	if n := rt.CheckBackends(ctx); n != len(backends) {
		return fmt.Errorf("%d of %d backends ready", n, len(backends))
	}
	for _, p := range b.paths {
		info, err := rt.OpenTrace(ctx, p)
		if err != nil {
			return fmt.Errorf("open %s: %w", p, err)
		}
		b.infos = append(b.infos, info)
	}
	for _, svc := range b.svcs {
		ids := map[string]string{}
		for _, t := range svc.Registry().List() {
			ids[t.Path] = t.ID
		}
		b.localID = append(b.localID, ids)
	}
	return nil
}

// measureCacheBytes decodes every frame of the served traces into a
// cache large enough to hold them all and records the bytes it charges
// per resident record.
func (b *serveBench) measureCacheBytes() error {
	cache := tracesvc.NewFrameCache(1<<40, 1)
	var recs int64
	for i, p := range b.paths {
		f, err := interval.Open(p)
		if err != nil {
			return err
		}
		frames, err := f.Frames()
		for _, fe := range frames {
			if err != nil {
				break
			}
			var got []interval.Record
			got, err = cache.Get(uint64(i), fe.Offset, func() ([]interval.Record, error) { return f.DecodeFrameDirect(fe) })
			recs += int64(len(got))
		}
		f.Close()
		if err != nil {
			return err
		}
	}
	b.e.add("tracesvc.cache_bytes", float64(cache.Stats().Bytes))
	b.e.add("tracesvc.cache_records", float64(recs))
	return nil
}

// cacheCounters sums the backends' cache counters; every miss is one
// frame decode.
func (b *serveBench) cacheCounters() (st tracesvc.CacheStats) {
	for _, svc := range b.svcs {
		s := svc.Cache().Stats()
		st.Hits, st.Misses, st.Evictions = st.Hits+s.Hits, st.Misses+s.Misses, st.Evictions+s.Evictions
	}
	return st
}

// load runs the load generator's default mix from one closed-loop
// client against the router: a pass over every window, then n measured
// requests. One client, because a stats query's kernels already use
// every CPU of a small host: with a second client the latencies
// measure queueing behind stats queries more than the service. Each
// call draws its windows and requests from the run's seed and the
// call's index; the median latency sits between the fast query kinds
// and the slow stats queries, where one draw's share of stats queries
// moves it, so the run's median pools several draws.
func (b *serveBench) load(n int) (*load.Report, error) {
	seed := b.e.seed*7919 + uint64(b.calls)
	b.calls++
	rep, err := load.Run(context.Background(), load.Config{
		BaseURL: b.router.url, Clients: 1, Requests: n, Seed: seed, Windows: 16,
	})
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	return rep, nil
}

// op runs one load.Run call (a pass over every window, then
// serveRequests measured requests), then checks sampled router bodies
// against a direct backend's.
func (b *serveBench) op(r *result, traced bool) error {
	e := b.e
	c0 := b.cacheCounters()
	retries0 := b.routerRetries()
	root := e.tr.begin("load.run", 0)
	b.loadSpan.Store(root)
	sw := startWatch()
	rep, err := b.load(e.sz.serveRequests)
	_, stolen := sw.elapsed()
	e.tr.end(root)
	b.loadSpan.Store(0)
	if err != nil {
		return err
	}
	e.addCache(c0, b.cacheCounters())
	queries := rep.Cold.Requests + rep.Warm.Requests
	r.attempted += queries
	r.failed += rep.Cold.Errors + rep.Warm.Errors
	if rep.Cold.Errors+rep.Warm.Errors > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d load queries failed\n", rep.Cold.Errors+rep.Warm.Errors, queries)
	}
	// The load generator times with the wall clock; its timings lose
	// the stolen share of the whole call.
	b.warmReqs += rep.Warm.Requests
	b.warmSecs += rep.Warm.Seconds * (1 - stolen)
	b.p50s = append(b.p50s, rep.Warm.P50Ms*(1-stolen))
	b.p95s = append(b.p95s, rep.Warm.P95Ms*(1-stolen))
	e.add("client.queries", float64(queries))
	e.add("shard.retries", float64(b.routerRetries()-retries0))

	for i := 0; i < 2; i++ {
		r.check("router body", b.sample())
	}
	return nil
}

// sample sends one query of the load mix through the router and
// straight to a backend, twice each so both paths are warm, checks that
// the bodies are byte-identical and records the router's extra latency.
func (b *serveBench) sample() error {
	e := b.e
	info := b.infos[b.rng.Intn(len(b.infos))]
	dur := info.EndSec - info.StartSec
	span := dur * (0.1 + 0.4*b.rng.Float64())
	lo := info.StartSec + (dur-span)*b.rng.Float64()
	q := fmt.Sprintf("%s&window=%.6f:%.6f", mixQueries[b.rng.Intn(len(mixQueries))], lo, lo+span)
	bi := b.rng.Intn(len(b.backends))
	routerURL := b.router.url + "/v1/traces/" + info.ID + q
	directURL := b.backends[bi].url + "/v1/traces/" + b.localID[bi][info.Path] + q

	var via, direct []byte
	var dVia, dDirect time.Duration
	for round := 0; round < 2; round++ {
		var err error
		if via, dVia, err = b.timedGet("bench.via_router", routerURL); err != nil {
			return err
		}
		if direct, dDirect, err = b.timedGet("bench.direct", directURL); err != nil {
			return err
		}
	}
	e.sample("shard.leg", dVia-dDirect)
	if e.corrupt {
		via = append(via[:len(via):len(via)], ' ')
	}
	if !bytes.Equal(via, direct) {
		return fmt.Errorf("%s: router body (%d bytes) differs from backend %d's (%d bytes)", q, len(via), bi, len(direct))
	}
	return nil
}

func (b *serveBench) timedGet(span, url string) ([]byte, time.Duration, error) {
	e := b.e
	id := e.tr.beginRequest(span, 0)
	ctx, unlink := e.linkConns(context.Background(), id)
	t0 := time.Now()
	body, err := get(ctx, b.client, url)
	d := time.Since(t0)
	e.tr.end(id)
	unlink()
	return body, d, err
}

// routerRetries reads the router's retry counter.
func (b *serveBench) routerRetries() int64 {
	body, err := get(context.Background(), b.client, b.router.url+"/metrics")
	if err != nil {
		return 0
	}
	var n int64
	for _, line := range bytes.Split(body, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("uterouter_retries_total ")); ok {
			fmt.Sscan(string(v), &n)
		}
	}
	return n
}

func (b *serveBench) report(r *result) {
	m := r.metrics
	qps := div(float64(b.warmReqs), b.warmSecs)
	m["query_qps"] = qps
	m["query_p50_ms"] = median(b.p50s)
	m["query_p95_ms"] = median(b.p95s)
	var evs float64
	for _, n := range b.events {
		evs += float64(n)
	}
	m["events_per_s"] = qps * div(evs, float64(len(b.events)))
	m["records_per_event"] = div(float64(b.records), evs)
}

func (b *serveBench) close() {
	b.router.stop()
	if b.rt != nil {
		b.rt.Close()
	}
	for _, s := range b.backends {
		s.stop()
	}
	for _, svc := range b.svcs {
		svc.Close()
	}
	b.client.CloseIdleConnections()
}
