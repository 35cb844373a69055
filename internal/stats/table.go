package stats

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"tracefw/internal/clock"
	"tracefw/internal/interval"
)

// Table is one generated statistics table.
type Table struct {
	Name    string
	XLabels []string
	YLabels []string
	Rows    []Row
	// Skipped counts records that were selected but excluded because an
	// expression referenced a field their state type does not carry
	// (the errSkip path) — previously these vanished silently.
	Skipped int64
	// Columnar reports which engine produced the table: true for the
	// vectorized kernels over columnar batches, false for the
	// record-at-a-time evaluator. Output is byte-identical either way.
	Columnar bool
	// Engine reports which data path answered a time-resolved table:
	// "pyramid" for the summary-pyramid fast path, "scan" for the
	// frame-decode path. Empty for spec-driven tables. Output is
	// byte-identical either way; the field is observability only (it is
	// not part of TSV).
	Engine string `json:",omitempty"`
}

// Row is one table row: the x tuple and the aggregated y values.
type Row struct {
	X []Value
	Y []float64
}

type cell struct {
	sum, min, max float64
	n             int64
}

type group struct {
	x []Value
	y []cell
}

// Engine selects how tables are evaluated.
type Engine int

const (
	// EngineAuto compiles the program to vectorized kernels over
	// columnar batches when every expression is lowerable, falling back
	// to the record-at-a-time evaluator otherwise. The default.
	EngineAuto Engine = iota
	// EngineScalar forces the record-at-a-time evaluator.
	EngineScalar
	// EngineColumnar requires the columnar kernels; generation fails if
	// any expression cannot be lowered.
	EngineColumnar
)

// Options tunes table generation.
type Options struct {
	// Parallel is the frame-decode worker count handed to the interval
	// map-reduce engine; <= 0 means GOMAXPROCS. Results are
	// byte-identical for every worker count: aggregation is per-frame
	// partials merged in frame order, so float summation order never
	// depends on scheduling.
	Parallel int
	// Window restricts aggregation to records overlapping [Lo, Hi]
	// (end >= Lo and start <= Hi). Frames — and on current-format files
	// whole directories — outside the window are never decoded. The
	// bin() builtin keeps using full-run bounds so bin numbers mean the
	// same thing windowed or not.
	Window bool
	Lo, Hi clock.Time
	// Context, when non-nil, aborts generation once it is cancelled
	// (checked per frame by the map-reduce engine). The trace query
	// service sets it to the request context; CLIs leave it nil.
	Context context.Context
	// Engine picks the evaluator; see the Engine constants.
	Engine Engine
	// Summary picks the data path for time-resolved tables:
	// SummaryAuto uses the file's summary pyramid when one is attached
	// and usable (single file, non-degenerate window), falling back to
	// the frame-decode path; SummaryPyramid requires it; SummaryScan
	// forces frame decodes. Spec-driven tables ignore this field.
	Summary interval.SummaryEngine
}

// Generate runs every table of the program over the interval files.
func Generate(program string, files []*interval.File) ([]*Table, error) {
	return GenerateOpts(program, files, Options{})
}

// GenerateOpts is Generate with explicit Options.
func GenerateOpts(program string, files []*interval.File, opts Options) ([]*Table, error) {
	specs, err := Parse(program)
	if err != nil {
		return nil, err
	}
	return GenerateSpecsOpts(specs, files, opts)
}

// GenerateSpecs runs parsed table specs over the interval files.
func GenerateSpecs(specs []*TableSpec, files []*interval.File) ([]*Table, error) {
	return GenerateSpecsOpts(specs, files, Options{})
}

// GenerateSpecsOpts runs parsed table specs over the interval files on
// the per-frame map-reduce engine: frames decode and evaluate
// concurrently into partial group maps, which merge into the global
// groups in frame order. The Engine option picks between the
// record-at-a-time evaluator and the vectorized kernels over columnar
// batches; both produce byte-identical tables on the expressions the
// compiler accepts.
func GenerateSpecsOpts(specs []*TableSpec, files []*interval.File, opts Options) ([]*Table, error) {
	tStart, tEnd, err := runBounds(files)
	if err != nil {
		return nil, err
	}
	columnar := false
	var prog *compiledProgram
	switch opts.Engine {
	case EngineScalar:
	case EngineColumnar:
		p, ok := compileProgram(specs)
		if !ok {
			return nil, fmt.Errorf("stats: program is not lowerable to columnar kernels")
		}
		prog, columnar = p, true
	default:
		if p, ok := compileProgram(specs); ok {
			prog, columnar = p, true
		}
	}
	if columnar {
		return generateColumnar(prog, specs, files, opts, tStart, tEnd)
	}
	return generateScalar(specs, files, opts, tStart, tEnd)
}

// runBounds computes overall run bounds over all inputs, for bin().
func runBounds(files []*interval.File) (tStart, tEnd clock.Time, err error) {
	firstStats := true
	for _, f := range files {
		fs, fe, n, err := f.Stats()
		if err != nil {
			return 0, 0, err
		}
		if n == 0 {
			continue
		}
		if firstStats || fs < tStart {
			tStart = fs
		}
		if firstStats || fe > tEnd {
			tEnd = fe
		}
		firstStats = false
	}
	return tStart, tEnd, nil
}

// specPartial is one frame's contribution: partial groups per spec plus
// the per-spec count of records excluded by errSkip.
type specPartial struct {
	pg      []map[string]*group
	skipped []int64
}

func generateScalar(specs []*TableSpec, files []*interval.File, opts Options, tStart, tEnd clock.Time) ([]*Table, error) {
	groups := make([]map[string]*group, len(specs))
	for i := range groups {
		groups[i] = make(map[string]*group)
	}
	skipped := make([]int64, len(specs))

	mopts := interval.MapOptions{Parallel: opts.Parallel, Window: opts.Window, Lo: opts.Lo, Hi: opts.Hi, Context: opts.Context}
	err := interval.MapFilesBatches(files, mopts,
		func(file int, _ interval.FrameEntry, b *interval.Batch) (*specPartial, error) {
			ctx := &evalCtx{markers: files[file].Header.Markers, tStart: tStart, tEnd: tEnd}
			sp := &specPartial{pg: make([]map[string]*group, len(specs)), skipped: make([]int64, len(specs))}
			for i := range sp.pg {
				sp.pg[i] = make(map[string]*group)
			}
			var rec interval.Record
			for i := 0; i < b.N; i++ {
				// The row view aliases the pooled batch; the evaluator
				// only reads it, and nothing outlives this map call.
				rec = b.Row(i)
				if opts.Window && (rec.End() < opts.Lo || rec.Start > opts.Hi) {
					// Filter at the record level so the result does not
					// depend on how records happened to be framed.
					continue
				}
				ctx.rec = &rec
				for si, spec := range specs {
					skip, err := accumulate(spec, ctx, sp.pg[si])
					if err != nil {
						return nil, err
					}
					if skip {
						sp.skipped[si]++
					}
				}
			}
			return sp, nil
		},
		func(_ int, _ interval.FrameEntry, sp *specPartial) error {
			for si := range specs {
				mergeGroups(groups[si], sp.pg[si])
				skipped[si] += sp.skipped[si]
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return buildTables(specs, groups, skipped, false), nil
}

// buildTables finalizes merged groups into sorted tables; shared by
// both engines so the output path is literally the same code.
func buildTables(specs []*TableSpec, groups []map[string]*group, skipped []int64, columnar bool) []*Table {
	tables := make([]*Table, len(specs))
	for si, spec := range specs {
		t := &Table{Name: spec.Name, Skipped: skipped[si], Columnar: columnar}
		for _, x := range spec.X {
			t.XLabels = append(t.XLabels, x.Label)
		}
		for _, y := range spec.Y {
			t.YLabels = append(t.YLabels, y.Label)
		}
		keys := make([]string, 0, len(groups[si]))
		for k := range groups[si] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			g := groups[si][k]
			row := Row{X: g.x}
			for yi, y := range spec.Y {
				row.Y = append(row.Y, finalize(y.Agg, g.y[yi]))
			}
			t.Rows = append(t.Rows, row)
		}
		sortRows(t)
		tables[si] = t
	}
	return tables
}

// mergeGroups folds one frame's partial groups into the running global
// groups. Each key's cells combine commutatively except for the float
// sum, whose order is fixed by the reducer's frame ordering — the merge
// itself is per-key independent, so map iteration order is harmless.
func mergeGroups(dst, src map[string]*group) {
	for k, g := range src {
		d := dst[k]
		if d == nil {
			dst[k] = g
			continue
		}
		for i := range g.y {
			c, s := &d.y[i], &g.y[i]
			c.sum += s.sum
			c.n += s.n
			if s.min < c.min {
				c.min = s.min
			}
			if s.max > c.max {
				c.max = s.max
			}
		}
	}
}

// accumulate folds one record into the spec's partial groups. skipped
// reports that the record was excluded because an expression referenced
// a field its state type lacks (errSkip); condition-false records are
// not skips, they are simply unselected.
func accumulate(spec *TableSpec, ctx *evalCtx, groups map[string]*group) (skipped bool, err error) {
	if spec.Condition != nil {
		v, err := eval(spec.Condition, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		if !v.Truth() {
			return false, nil
		}
	}
	xs := make([]Value, len(spec.X))
	for i, x := range spec.X {
		v, err := eval(x.Expr, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		xs[i] = v
	}
	ys := make([]float64, len(spec.Y))
	for i, y := range spec.Y {
		v, err := eval(y.Expr, ctx)
		if errors.Is(err, errSkip) {
			return true, nil
		}
		if err != nil {
			return false, fmt.Errorf("table %q: %w", spec.Name, err)
		}
		if v.Str {
			return false, fmt.Errorf("table %q: y expression %q produced a string", spec.Name, y.Label)
		}
		ys[i] = v.F
	}
	key := groupKey(xs)
	g := groups[key]
	if g == nil {
		g = &group{x: xs, y: make([]cell, len(spec.Y))}
		for i := range g.y {
			g.y[i].min = math.Inf(1)
			g.y[i].max = math.Inf(-1)
		}
		groups[key] = g
	}
	for i, v := range ys {
		c := &g.y[i]
		c.sum += v
		c.n++
		if v < c.min {
			c.min = v
		}
		if v > c.max {
			c.max = v
		}
	}
	return false, nil
}

func finalize(a Agg, c cell) float64 {
	switch a {
	case AggSum:
		return c.sum
	case AggAvg:
		if c.n == 0 {
			return 0
		}
		return c.sum / float64(c.n)
	case AggMin:
		if c.n == 0 {
			return 0
		}
		return c.min
	case AggMax:
		if c.n == 0 {
			return 0
		}
		return c.max
	case AggCount:
		return float64(c.n)
	}
	return 0
}

func groupKey(xs []Value) string {
	var b strings.Builder
	for _, v := range xs {
		if v.Str {
			b.WriteByte('s')
			b.WriteString(v.S)
		} else {
			fmt.Fprintf(&b, "n%g", v.F)
		}
		b.WriteByte('\x00')
	}
	return b.String()
}

// sortRows orders rows by x tuple: numbers numerically, strings
// lexically, numbers before strings per column.
func sortRows(t *Table) {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		a, b := t.Rows[i].X, t.Rows[j].X
		for k := range a {
			if k >= len(b) {
				return false
			}
			av, bv := a[k], b[k]
			if av.Str != bv.Str {
				return !av.Str
			}
			if av.Str {
				if av.S != bv.S {
					return av.S < bv.S
				}
				continue
			}
			if av.F != bv.F {
				return av.F < bv.F
			}
		}
		return false
	})
}

// TSV renders the table as tab-separated values with a header row (the
// paper: "The generated tables is a tab-separated-value text file").
func (t *Table) TSV() string {
	var b strings.Builder
	for i, l := range append(append([]string{}, t.XLabels...), t.YLabels...) {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(l)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		for i, x := range r.X {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(x.Text())
		}
		for i, y := range r.Y {
			if i > 0 || len(r.X) > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(num(y).Text())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cell looks up a row by x values (rendered text form) and returns the
// y column value; used by tests and the viewer.
func (t *Table) Cell(xs []string, ycol int) (float64, bool) {
	for _, r := range t.Rows {
		if len(r.X) != len(xs) {
			continue
		}
		match := true
		for i := range xs {
			if r.X[i].Text() != xs[i] {
				match = false
				break
			}
		}
		if match && ycol < len(r.Y) {
			return r.Y[ycol], true
		}
	}
	return 0, false
}
