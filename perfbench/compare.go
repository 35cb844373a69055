package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactCounts are deterministic counts: compare reports their change
// as a count delta, never as a speed-up.
var exactCounts = map[string]bool{
	"records_per_event": true, "merge.records_per_event": true,
	"merge.frames": true, "merge.pseudo_frac": true,
}

// runOutput is one saved run: its info line and its result line.
type runOutput struct {
	Workload string
	Trace    int
	Metrics  map[string]metricValue
}

// readSet loads every run output file in dir.
func readSet(dir string) ([]runOutput, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []runOutput
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return nil, err
		}
		var lines [][]byte
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
				lines = append(lines, append([]byte(nil), l...))
			}
		}
		if len(lines) < 2 {
			return nil, fmt.Errorf("%s: not a perfbench output (needs an info line and a result line)", ent.Name())
		}
		var info struct {
			Workload string `json:"workload"`
			Trace    int    `json:"trace"`
		}
		var res struct {
			Metrics map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil || info.Workload == "" {
			return nil, fmt.Errorf("%s: bad info line", ent.Name())
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: bad result line: %v", ent.Name(), err)
		}
		out = append(out, runOutput{info.Workload, info.Trace, res.Metrics})
	}
	return out, nil
}

// compareSets prints, per workload and metric, each set's median and
// quartiles and a verdict for B against A.
func compareSets(w io.Writer, specPath, dirA, dirB string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := readSet(dirA)
	if err != nil {
		return err
	}
	b, err := readSet(dirB)
	if err != nil {
		return err
	}
	type key struct {
		wl    string
		trace int
	}
	groups := map[key][2][]runOutput{}
	for i, set := range [][]runOutput{a, b} {
		for _, o := range set {
			k := key{o.Workload, o.Trace}
			g := groups[k]
			g[i] = append(g[i], o)
			groups[k] = g
		}
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].wl != keys[j].wl {
			return keys[i].wl < keys[j].wl
		}
		return keys[i].trace < keys[j].trace
	})
	for _, k := range keys {
		g := groups[k]
		metrics := spec.EndToEnd
		if k.trace == 1 {
			metrics = spec.PerLayer
		}
		fmt.Fprintf(w, "== %s (trace %d): A %d runs, B %d runs\n", k.wl, k.trace, len(g[0]), len(g[1]))
		fmt.Fprintf(w, "%-36s %-14s %12s %12s %12s %12s %12s %12s  %s\n", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "verdict")
		for _, m := range metrics {
			va, vb := values(g[0], m.Name), values(g[1], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-36s %-14s missing from a set\n", m.Name, m.Unit)
				continue
			}
			fmt.Fprintf(w, "%-36s %-14s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g  %s\n", m.Name, m.Unit,
				quantile(va, 0.25), median(va), quantile(va, 0.75),
				quantile(vb, 0.25), median(vb), quantile(vb, 0.75), verdict(m, va, vb))
		}
	}
	return nil
}

func values(runs []runOutput, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[name]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

// verdict judges B against A. Exact counts report their delta. Other
// metrics are unresolved when either set's quartile spread, as a share
// of its median, exceeds the metric's bound (per-layer metrics have
// none), unless every run of one set beats every run of the other;
// otherwise B is worse when its median is worse by more than the bound,
// better when it is better by more than the spread, and the same
// otherwise.
func verdict(m specMetric, a, b []float64) string {
	ma, mb := median(a), median(b)
	sign := 1.0 // positive gain = B better
	if m.Better == "lower" {
		sign = -1
	}
	if exactCounts[m.Name] {
		d := mb - ma
		switch {
		case d == 0:
			return "same (count delta 0)"
		case sign*d > 0:
			return fmt.Sprintf("better (count delta %+.6g)", d)
		default:
			return fmt.Sprintf("worse (count delta %+.6g)", d)
		}
	}
	spread := math.Max(relIQR(a), relIQR(b))
	gain := 0.0
	if ma != 0 {
		gain = sign * (mb - ma) / math.Abs(ma)
	}
	switch {
	case dominates(b, a, sign):
		return fmt.Sprintf("better (%+.1f%%, every run)", 100*gain)
	case dominates(a, b, sign):
		return fmt.Sprintf("worse (%+.1f%%, every run)", 100*gain)
	case spread > m.Bound:
		return fmt.Sprintf("unresolved (%+.1f%%, spread %.1f%% > bound %.1f%%)", 100*gain, 100*spread, 100*m.Bound)
	case gain < -m.Bound:
		return fmt.Sprintf("worse (%+.1f%%, bound %.1f%%)", 100*gain, 100*m.Bound)
	case gain > spread:
		return fmt.Sprintf("better (%+.1f%%, spread %.1f%%)", 100*gain, 100*spread)
	}
	return fmt.Sprintf("same (%+.1f%%, within bound %.1f%%)", 100*gain, 100*m.Bound)
}

// relIQR is the quartile spread as a share of the median.
func relIQR(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(med)
}

// dominates reports whether every run of x beats every run of y (in the
// direction sign, +1 = higher is better) with at least two runs a side.
func dominates(x, y []float64, sign float64) bool {
	if len(x) < 2 || len(y) < 2 {
		return false
	}
	worstX, bestY := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		worstX = math.Min(worstX, sign*v)
	}
	for _, v := range y {
		bestY = math.Max(bestY, sign*v)
	}
	return worstX > bestY
}
