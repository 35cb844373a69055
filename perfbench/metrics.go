package main

import "tracefw/internal/tracesvc"

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units (a test keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd is what a user of each workload sees; every workload reports
// all of them (see README.md in this directory for the per-workload
// meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"records_per_event", "records/event"},
	{"query_qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the span layers whose self-time share is reported;
// "bench" is the benchmark's own work (operation roots, checks, sampled
// requests).
var layers = []string{"mpisim", "convert", "merge", "interval", "slog", "stats", "render", "tracesvc", "shard", "ingest", "load", "bench"}

var perLayer = append([]metricDef{
	{"mpisim.run_s", "s"},
	{"mpisim.ns_per_event", "ns"},
	{"mpisim.allocs_per_event", "count"},
	{"trace.bytes_per_event", "B"},
	{"convert.busy_s", "s"},
	{"convert.ns_per_event", "ns"},
	{"convert.allocs_per_event", "count"},
	{"merge.busy_s", "s"},
	{"merge.ns_per_record", "ns"},
	{"merge.records_per_event", "count"},
	{"merge.pseudo_frac", "fraction"},
	{"merge.frames", "count"},
	{"interval.bytes_per_record", "B"},
	{"interval.pyramid_build_s", "s"},
	{"interval.open_ms", "ms"},
	{"interval.frames_decoded", "count"},
	{"slog.build_s", "s"},
	{"slog.bytes_per_record", "B"},
	{"stats.predefined_s", "s"},
	{"stats.timeresolved_s", "s"},
	{"stats.ns_per_record", "ns"},
	{"render.preview_ms", "ms"},
	{"render.preview_frames_decoded", "count"},
	{"tracesvc.cache_hit_ratio", "fraction"},
	{"tracesvc.frames_decoded_per_query", "count"},
	{"tracesvc.cache_evictions_per_query", "count"},
	{"tracesvc.cache_bytes_per_record", "B"},
	{"tracesvc.stats_p50_ms", "ms"},
	{"tracesvc.preview_p50_ms", "ms"},
	{"tracesvc.timeresolved_p50_ms", "ms"},
	{"tracesvc.records_p50_ms", "ms"},
	{"shard.router_leg_ms", "ms"},
	{"shard.backend_requests_per_query", "count"},
	{"shard.retries", "count"},
	{"ingest.batch_p50_ms", "ms"},
	{"ingest.seals", "count"},
	{"ingest.live_retry_frac", "fraction"},
	{"bench.trace_overhead", "fraction"},
	{"bench.steal_frac", "fraction"},
}, selfShareDefs()...)

func selfShareDefs() []metricDef {
	d := make([]metricDef, len(layers))
	for i, l := range layers {
		d[i] = metricDef{l + ".self_frac", "fraction"}
	}
	return d
}

// layerMetrics derives the per-layer metrics of a traced run from the
// calls, counters and spans it recorded. A layer the workload never
// calls reports 0.
func (e *env) layerMetrics(r *result) {
	c, n, a := e.calls, e.counts, e.allocs
	ms := func(name string) float64 { return 1e3 * median(c[name]) }
	m := r.metrics

	m["mpisim.run_s"] = median(c["mpisim.run"])
	m["mpisim.ns_per_event"] = 1e9 * div(sum(c["mpisim.run"]), n["mpisim.events"])
	m["mpisim.allocs_per_event"] = div(a["mpisim.run"], n["mpisim.events"])
	m["trace.bytes_per_event"] = div(n["mpisim.bytes"], n["mpisim.events"])

	m["convert.busy_s"] = median(c["convert"])
	m["convert.ns_per_event"] = 1e9 * div(sum(c["convert"]), n["convert.events"])
	m["convert.allocs_per_event"] = div(a["convert"], n["convert.events"])

	m["merge.busy_s"] = median(c["merge"])
	m["merge.ns_per_record"] = 1e9 * div(sum(c["merge"]), n["merge.records"])
	m["merge.records_per_event"] = div(n["merge.records"], n["merge.events"])
	m["merge.pseudo_frac"] = div(n["merge.pseudo"], n["merge.records"])
	m["merge.frames"] = div(n["merge.frames"], float64(len(c["merge"])))

	m["interval.bytes_per_record"] = div(n["merge.bytes"], n["merge.records"])
	m["interval.pyramid_build_s"] = median(c["interval.pyramid"])
	m["interval.open_ms"] = ms("interval.open")
	m["interval.frames_decoded"] = div(n["interval.frames_decoded"], float64(len(e.opDur[1])))

	m["slog.build_s"] = median(c["slog.build"])
	m["slog.bytes_per_record"] = div(n["slog.bytes"], n["slog.records"])

	m["stats.predefined_s"] = median(c["stats.predefined"])
	m["stats.timeresolved_s"] = median(c["stats.timeresolved"])
	m["stats.ns_per_record"] = 1e9 * div(sum(c["stats.predefined"])+sum(c["stats.timeresolved"]), n["stats.records"])

	m["render.preview_ms"] = ms("render.preview")
	m["render.preview_frames_decoded"] = div(n["render.frames_decoded"], float64(len(c["render.preview"])))

	m["tracesvc.cache_hit_ratio"] = div(n["tracesvc.hits"], n["tracesvc.hits"]+n["tracesvc.misses"])
	m["tracesvc.frames_decoded_per_query"] = div(n["tracesvc.misses"], n["client.queries"])
	m["tracesvc.cache_evictions_per_query"] = div(n["tracesvc.evictions"], n["client.queries"])
	m["tracesvc.cache_bytes_per_record"] = div(n["tracesvc.cache_bytes"], n["tracesvc.cache_records"])
	for _, k := range []string{"stats", "preview", "timeresolved", "records"} {
		m["tracesvc."+k+"_p50_ms"] = ms("tracesvc." + k)
	}

	m["shard.router_leg_ms"] = ms("shard.leg")
	m["shard.backend_requests_per_query"] = div(n["tracesvc.queries"], n["shard.queries"])
	m["shard.retries"] = n["shard.retries"]

	m["ingest.batch_p50_ms"] = ms("ingest.batch")
	m["ingest.seals"] = div(n["ingest.seals"], n["ingest.sessions"])
	m["ingest.live_retry_frac"] = div(n["ingest.live_retries"], n["ingest.live_queries"])

	m["bench.trace_overhead"] = div(median(e.opDur[1]), median(e.opDur[0])) - 1
	self := e.tr.selfTimes()
	total := 0.0
	for _, v := range self {
		total += v
	}
	for _, l := range layers {
		m[l+".self_frac"] = div(self[l], total)
	}
}

// addCache adds the decoded-frame cache movement between two snapshots.
func (e *env) addCache(before, after tracesvc.CacheStats) {
	e.add("tracesvc.hits", float64(after.Hits-before.Hits))
	e.add("tracesvc.misses", float64(after.Misses-before.Misses))
	e.add("tracesvc.evictions", float64(after.Evictions-before.Evictions))
}
