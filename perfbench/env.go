package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sizes fixes every input size. fullSizes is what the benchmark runs;
// the tests shrink it.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	// batch: one storm trace of about 10^6 raw events.
	batchNodes, batchTasks, batchIters int

	// scale: one imbalance(iters=2) sweep cell.
	scaleNodes, scaleWarmNodes int

	// serve: storm traces behind a router and two backends. Four traces
	// of ~129K records decode to ~62 MiB in the frame cache, about three
	// times the two backends' 10 MiB budgets together. Splitting at 64
	// frames puts every trace on both backends, so record queries
	// scatter.
	serveTraces, serveNodes, serveTasks, serveIters int
	serveCacheBytes                                 int64 // per backend
	serveSplitFrames                                int
	serveRequests                                   int // measured requests per operation

	// ingest: one storm trace posted in 64 KiB per-node batches.
	ingestNodes, ingestTasks, ingestIters int
	ingestBatchBytes                      int
}

var fullSizes = sizes{
	setupReps:  3,
	batchNodes: 8, batchTasks: 4, batchIters: 2600,
	scaleNodes: 256, scaleWarmNodes: 192,
	serveTraces: 4, serveNodes: 8, serveTasks: 2, serveIters: 1275,
	serveCacheBytes: 10 << 20, serveSplitFrames: 64, serveRequests: 300,
	ingestNodes: 4, ingestTasks: 4, ingestIters: 4000, ingestBatchBytes: 64 << 10,
}

// warmable is a workload whose first operation warms the process up:
// execute runs one untimed operation, then reset drops its timings.
type warmable interface{ reset() }

// bench is one workload: set up, run timed operations, report.
type bench interface {
	// setup builds the inputs and starts any servers; it is timed.
	setup() error
	// op runs one timed operation, checks its outputs and counts
	// attempted and failed operations into r.
	op(r *result, traced bool) error
	// report adds the end-to-end metrics (all but setup_s and
	// peak_rss_mb) from the operations run so far.
	report(r *result)
	// close stops servers and releases inputs.
	close()
}

var workloads = map[string]func(*env) bench{
	"batch":  newBatch,
	"scale":  newScale,
	"serve":  newServe,
	"ingest": newIngest,
}

// env is one benchmark run's configuration and, in a traced run, the
// per-layer samples.
type env struct {
	seed    uint64
	seconds time.Duration
	dir     string
	sz      sizes
	tr      *tracer // nil in an untraced run
	// corrupt plants a damaged output before the checks (tests).
	corrupt bool

	mu     sync.Mutex
	calls  map[string][]float64 // call name -> durations (s)
	allocs map[string]float64   // call name -> heap allocations
	counts map[string]float64   // named counters
	opDur  [2][]float64         // op durations (s): [untraced, traced]
}

func newEnv(seed uint64, seconds time.Duration, traced bool, dir string, sz sizes) *env {
	e := &env{
		seed: seed, seconds: seconds, dir: dir, sz: sz,
		calls: map[string][]float64{}, allocs: map[string]float64{}, counts: map[string]float64{},
	}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// tracing reports whether calls are being recorded right now.
func (e *env) tracing() bool { return e.tr != nil && e.tr.on.Load() }

// execute sets the workload up sz.setupReps times, keeps the last
// set-up, and runs timed operations while the run's seconds last.
// A traced run alternates untraced and traced operations, so that the
// same process measures the tracing overhead.
func (e *env) execute(mk func(*env) bench) (*result, error) {
	var b bench
	var setups []float64
	if e.tr != nil {
		e.tr.phase(true)
	}
	for i := 0; i < e.sz.setupReps; i++ {
		if b != nil {
			b.close()
		}
		b = mk(e)
		debug.FreeOSMemory()
		sw := startWatch()
		if err := b.setup(); err != nil {
			b.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d, _ := sw.elapsed()
		setups = append(setups, d)
	}
	defer b.close()
	if e.tr != nil {
		e.tr.phase(false)
	}

	r := &result{metrics: map[string]float64{}}
	// Where the workload allows it, one untimed operation comes first:
	// the heap grows to its working size and lazy set-up finishes before
	// timing starts. Its outputs are checked like every other's.
	if w, ok := b.(warmable); ok {
		debug.FreeOSMemory()
		if err := b.op(r, false); err != nil {
			return nil, err
		}
		w.reset()
	}
	var peaks, stolen []float64
	start := time.Now()
	for i := 0; ; i++ {
		traced := e.tr != nil && i%2 == 1
		if e.tr != nil {
			e.tr.on.Store(traced)
		}
		// Every operation starts from a collected heap returned to the
		// system, so its peak resident memory is its own.
		debug.FreeOSMemory()
		rss := watchRSS()
		sw := startWatch()
		err := b.op(r, traced)
		d, s := sw.elapsed()
		peaks = append(peaks, rss.stop())
		stolen = append(stolen, s)
		if err != nil {
			return nil, err
		}
		k := 0
		if traced {
			k = 1
		}
		e.opDur[k] = append(e.opDur[k], d)
		// Stop before an operation that would run mostly past the end.
		left := e.seconds - time.Since(start)
		if left.Seconds() < d/2 && (e.tr == nil || i >= 1) {
			break
		}
	}
	b.report(r)
	r.metrics["setup_s"] = median(setups)
	r.metrics["peak_rss_mb"] = median(peaks)
	r.metrics["bench.steal_frac"] = median(stolen)
	if e.tr != nil {
		e.layerMetrics(r)
	}
	return r, nil
}

// call runs fn as one call into a layer. In a traced operation it
// records a span under parent and the call's duration and heap
// allocations under name; the returned span ID parents nested calls.
func (e *env) call(parent uint64, name string, fn func(span uint64) error) error {
	if !e.tracing() {
		return fn(0)
	}
	a0 := heapAllocs()
	id := e.tr.begin(name, parent)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0).Seconds()
	e.tr.end(id)
	a := heapAllocs() - a0
	e.mu.Lock()
	e.calls[name] = append(e.calls[name], d)
	e.allocs[name] += float64(a)
	e.mu.Unlock()
	return err
}

// sample records one duration under name in a traced operation.
func (e *env) sample(name string, d time.Duration) {
	if !e.tracing() {
		return
	}
	e.mu.Lock()
	e.calls[name] = append(e.calls[name], d.Seconds())
	e.mu.Unlock()
}

// add bumps a named counter in a traced operation.
func (e *env) add(name string, v float64) {
	if !e.tracing() {
		return
	}
	e.mu.Lock()
	e.counts[name] += v
	e.mu.Unlock()
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssWatch samples the process's resident memory while an operation
// runs.
type rssWatch struct {
	done chan struct{}
	peak chan float64
}

// watchRSS starts sampling residentMB every 5 ms.
func watchRSS() *rssWatch {
	w := &rssWatch{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		s := residentSamples()
		peak := residentMB(s)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = math.Max(peak, residentMB(s))
			case <-w.done:
				w.peak <- math.Max(peak, residentMB(s))
				return
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak resident memory in MB.
func (w *rssWatch) stop() float64 {
	close(w.done)
	return <-w.peak
}

func residentSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
}

// residentMB is the memory the Go runtime holds in physical pages, in
// MB: everything it has mapped less what it has returned to the system.
// run.sh has the runtime return memory with MADV_FREE, which leaves
// returned pages in /proc/self/statm's resident count until the kernel
// needs them, so the resident set is read from the runtime instead.
func residentMB(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// cpuTicks is a snapshot of the machine's CPU time from /proc/stat, in
// clock ticks: busy (user, nice, system, irq, softirq) and steal, the
// time a virtual CPU was ready to run while the hypervisor ran something
// else.
type cpuTicks struct{ busy, steal float64 }

// readCPUTicks reads the aggregate line of /proc/stat. Where it cannot,
// it returns zeros, and every stolen share is 0.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	return parseCPUTicks(string(b))
}

func parseCPUTicks(stat string) cpuTicks {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [9]float64
	for i := 1; i < len(v); i++ {
		v[i], _ = strconv.ParseFloat(f[i], 64)
	}
	return cpuTicks{busy: v[1] + v[2] + v[3] + v[6] + v[7], steal: v[8]}
}

// stopwatch times an interval net of the hypervisor's steal. On a shared
// host the hypervisor at times runs other guests on this machine's
// virtual CPUs, for stretches of seconds and up to a third of their
// time, and the kernel counts that time as steal. It stretches wall
// time with work elsewhere on the host, not with anything this program
// does, so elapsed scales wall time by the share of the CPU time the
// machine ran or was ready to run that was not stolen. Every timing
// behind an end-to-end metric goes through a stopwatch, one per
// operation or finer.
type stopwatch struct {
	t0 time.Time
	c0 cpuTicks
}

func startWatch() stopwatch { return stopwatch{time.Now(), readCPUTicks()} }

// elapsed returns the seconds since the stopwatch started less their
// stolen share, and that share.
func (w stopwatch) elapsed() (seconds, stolen float64) {
	d := time.Since(w.t0).Seconds()
	stolen = stolenShare(w.c0, readCPUTicks())
	return d * (1 - stolen), stolen
}

// stolenShare is the share of the CPU time the machine ran or was ready
// to run between two snapshots that the hypervisor stole.
func stolenShare(a, b cpuTicks) float64 {
	st := b.steal - a.steal
	return div(st, b.busy-a.busy+st)
}

// quantile is the q-quantile of xs by linear interpolation (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check counts one checked operation; a non-nil err marks it failed and
// is reported on stderr.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(stderr, "perfbench: check failed: %s: %v\n", what, err)
	}
}
