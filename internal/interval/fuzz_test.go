// Fuzz targets for the interval reader and the salvage path. They live
// in an external test package so the seed-corpus generator can drive
// the real tracegen→convert pipeline (which itself imports interval).
//
// Plain `go test` executes every checked-in seed under
// testdata/fuzz/<Target>/ as a unit test; `go test -fuzz <Target>`
// mutates from there. Regenerate the corpus with
//
//	go test ./internal/interval -run TestRegenFuzzCorpus -regen-corpus
package interval_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"tracefw/internal/clock"
	"tracefw/internal/cluster"
	"tracefw/internal/convert"
	"tracefw/internal/events"
	"tracefw/internal/interval"
	"tracefw/internal/mpisim"
	"tracefw/internal/trace"
	"tracefw/internal/workload"
)

// fuzzInputCap bounds mutated inputs: every structure in the format is
// proportional to file size, so giant inputs only slow exploration.
const fuzzInputCap = 512 << 10

func fuzzOpen(data []byte) (*interval.File, bool) {
	f, err := interval.NewFile(interval.NewSeekBufferFrom(data))
	return f, err == nil
}

// FuzzOpen: header and table parsing plus the directory walk must never
// panic, hang, or allocate unboundedly, no matter the input.
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("UTEIVL1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		fl, ok := fuzzOpen(data)
		if !ok {
			return
		}
		_, _ = fl.Frames()
		_, _ = fl.Dirs()
		_, _, _, _ = fl.Stats()
		_, _ = fl.Validate(nil)
	})
}

// FuzzNextRecord: the sequential scanner must terminate with either EOF
// or an error on every input, in a bounded number of steps.
func FuzzNextRecord(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		fl, ok := fuzzOpen(data)
		if !ok {
			return
		}
		sc := fl.Scan()
		var rec interval.Record
		// Every record costs at least one framed byte, so a terminating
		// scanner returns at most Size records.
		for steps := fl.Size + 16; ; steps-- {
			if steps < 0 {
				t.Fatalf("scanner did not terminate within %d records", fl.Size+16)
			}
			if err := sc.NextRecordInto(&rec); err != nil {
				break
			}
		}
	})
}

// FuzzScanWindow: windowed access must behave like the sequential
// scanner — bounded, panic-free — for arbitrary windows too.
func FuzzScanWindow(f *testing.F) {
	f.Add([]byte{}, int64(0), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		if len(data) > fuzzInputCap {
			return
		}
		fl, ok := fuzzOpen(data)
		if !ok {
			return
		}
		_, _ = fl.FramesInWindow(clock.Time(lo), clock.Time(hi))
		_, _, _ = fl.FrameContaining(clock.Time(lo))
		sc := fl.ScanWindow(clock.Time(lo), clock.Time(hi))
		var rec interval.Record
		for steps := fl.Size + 16; ; steps-- {
			if steps < 0 {
				t.Fatalf("window scanner did not terminate within %d records", fl.Size+16)
			}
			if err := sc.NextRecordInto(&rec); err != nil {
				break
			}
		}
	})
}

// FuzzSalvage: Salvage must never panic or return an error for any
// input that opens, every frame it reports recovered must actually be
// readable with the promised record count, and Repair must turn any
// salvage result into a file that passes Validate.
func FuzzSalvage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("UTEIVL1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		fl, ok := fuzzOpen(data)
		if !ok {
			return
		}
		sv := fl.Salvage()
		for _, fe := range sv.Frames {
			recs, err := fl.DecodeFrameDirect(fe)
			if err != nil {
				t.Fatalf("salvaged frame at %d unreadable: %v", fe.Offset, err)
			}
			if len(recs) != int(fe.Records) {
				t.Fatalf("salvaged frame at %d: %d records, entry claims %d", fe.Offset, len(recs), fe.Records)
			}
		}
		out := interval.NewSeekBuffer()
		if _, err := interval.Repair(fl, sv, out, interval.WriterOptions{}); err != nil {
			t.Fatalf("repair of salvage result failed: %v", err)
		}
		rf, err := interval.NewFile(interval.NewSeekBufferFrom(out.Bytes()))
		if err != nil {
			t.Fatalf("repaired file does not open: %v", err)
		}
		if rep, err := rf.Validate(nil); err != nil {
			t.Fatalf("repaired file fails validation: %v (%+v)", err, rep)
		}
	})
}

// FuzzPyramid: the summary-pyramid sidecar decoder must never panic,
// hang, or allocate unboundedly on arbitrary bytes, and it must never
// invent structure: whatever it accepts must survive a canonical
// re-encode/decode round trip unchanged and satisfy the level-geometry
// invariants the query planner relies on (power-of-two doubling widths,
// per-cell summaries in canonical order).
func FuzzPyramid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("UTEPYR1\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		p, err := interval.DecodePyramid(data)
		if err != nil {
			return
		}
		if p.BaseWidth <= 0 || p.BaseWidth&(p.BaseWidth-1) != 0 {
			t.Fatalf("decoder accepted base width %d", p.BaseWidth)
		}
		for i, lvl := range p.Levels {
			if want := p.BaseWidth << uint(i); lvl.Width != want {
				t.Fatalf("level %d width %d, want %d", i, lvl.Width, want)
			}
		}
		rt, err := interval.DecodePyramid(p.Encode())
		if err != nil {
			t.Fatalf("re-encoded pyramid does not decode: %v", err)
		}
		if !reflect.DeepEqual(rt, p) {
			t.Fatalf("pyramid round trip changed the value\n got %+v\nwant %+v", rt, p)
		}
	})
}

// --- seed corpus -----------------------------------------------------

var regenCorpus = flag.Bool("regen-corpus", false, "regenerate the checked-in fuzz seed corpus from tracegen output")

// corpusSeeds builds the canonical seed files: a real pipeline output
// for every header version, an empty file, and a single-frame file.
func corpusSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	cfg := mpisim.Config{
		Cluster: cluster.Config{
			Nodes:       2,
			CPUsPerNode: 1,
			Seed:        17,
			TraceOpts: trace.Options{
				Prefix:  filepath.Join(dir, "raw"),
				Enabled: events.MaskAll,
			},
		},
		TasksPerNode: 1,
	}
	w, err := mpisim.NewFiles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(workload.Ring{Iters: 2, Bytes: 64}.Main())
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	rawPaths := []string{cfg.Cluster.TraceOpts.FileName(0), cfg.Cluster.TraceOpts.FileName(1)}
	outPaths := []string{filepath.Join(dir, "a.ute"), filepath.Join(dir, "b.ute")}
	if _, err := convert.ConvertAll(rawPaths, outPaths, convert.Options{}); err != nil {
		t.Fatal(err)
	}
	current, err := os.ReadFile(outPaths[0])
	if err != nil {
		t.Fatal(err)
	}

	f, err := interval.Open(outPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := f.Scan().All()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("pipeline produced no records")
	}
	// Re-encode the same records under the older header versions, with
	// small frames so the seeds still exercise multi-directory walks.
	reencode := func(version uint32, recs []interval.Record, opts interval.WriterOptions) []byte {
		hdr := f.Header
		hdr.HeaderVersion = version
		sb := interval.NewSeekBuffer()
		w, err := interval.NewWriter(sb, hdr, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			if err := w.Add(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return sb.Bytes()
	}
	small := interval.WriterOptions{FrameBytes: 512, FramesPerDir: 4}
	n := len(recs)
	if n > 64 {
		n = 64
	}
	return map[string][]byte{
		fmt.Sprintf("v%d-pipeline", interval.CurrentHeaderVersion): current,
		"v1-small":     reencode(1, recs[:n], small),
		"v2-small":     reencode(2, recs[:n], small),
		"v3-small":     reencode(3, recs[:n], small),
		"empty":        reencode(interval.CurrentHeaderVersion, nil, interval.WriterOptions{}),
		"single-frame": reencode(interval.CurrentHeaderVersion, recs[:4], interval.WriterOptions{}),
	}
}

// writeCorpusEntry writes one seed in the `go test fuzz v1` encoding.
func writeCorpusEntry(t *testing.T, target, name string, values ...string) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	body := "go test fuzz v1\n"
	for _, v := range values {
		body += v + "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRegenFuzzCorpus(t *testing.T) {
	if !*regenCorpus {
		t.Skip("pass -regen-corpus to regenerate the seed corpus")
	}
	seeds := corpusSeeds(t)
	for name, data := range seeds {
		q := "[]byte(" + strconv.Quote(string(data)) + ")"
		for _, target := range []string{"FuzzOpen", "FuzzNextRecord", "FuzzSalvage"} {
			writeCorpusEntry(t, target, name, q)
		}
		// Window seeds: the full run plus a half-open slice of it.
		fl, ok := fuzzOpen(data)
		if !ok {
			t.Fatalf("seed %s does not open", name)
		}
		first, last, _, err := fl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		mid := first + (last-first)/2
		writeCorpusEntry(t, "FuzzScanWindow", name+"-all", q,
			fmt.Sprintf("int64(%d)", first), fmt.Sprintf("int64(%d)", last))
		writeCorpusEntry(t, "FuzzScanWindow", name+"-half", q,
			fmt.Sprintf("int64(%d)", mid), fmt.Sprintf("int64(%d)", last))
		// Pyramid seeds: the real sidecar of every trace seed, so the
		// fuzzer mutates from encodings the builder actually produces.
		p, err := interval.BuildPyramid(fl, interval.PyramidOptions{BaseCells: 64, TopK: 4})
		if err != nil {
			t.Fatal(err)
		}
		writeCorpusEntry(t, "FuzzPyramid", name,
			"[]byte("+strconv.Quote(string(p.Encode()))+")")
	}
}

// TestFuzzCorpusSeedsValid guards the checked-in corpus against rot:
// the undamaged seeds must still open as valid interval files and cover
// every header version the reader accepts.
func TestFuzzCorpusSeedsValid(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzOpen")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("seed corpus missing (run -regen-corpus): %v", err)
	}
	versions := map[uint32]bool{}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data := decodeCorpusBytes(t, e.Name(), string(body))
		fl, ok := fuzzOpen(data)
		if !ok {
			t.Fatalf("seed %s no longer opens", e.Name())
		}
		if _, err := fl.Validate(nil); err != nil {
			t.Fatalf("seed %s no longer validates: %v", e.Name(), err)
		}
		if !fl.Salvage().Report.Clean() {
			t.Fatalf("seed %s: salvage of a pristine seed is not clean", e.Name())
		}
		versions[fl.Header.HeaderVersion] = true
	}
	for v := uint32(1); v <= interval.CurrentHeaderVersion; v++ {
		if !versions[v] {
			t.Fatalf("no seed with header version %d (have %v)", v, versions)
		}
	}
}

// decodeCorpusBytes extracts the single []byte literal from a `go test
// fuzz v1` corpus file.
func decodeCorpusBytes(t *testing.T, name, body string) []byte {
	t.Helper()
	const header = "go test fuzz v1\n"
	if len(body) < len(header) || body[:len(header)] != header {
		t.Fatalf("%s: not a corpus file", name)
	}
	line := body[len(header):]
	if i := len(line) - 1; i >= 0 && line[i] == '\n' {
		line = line[:i]
	}
	const pre, post = "[]byte(", ")"
	if len(line) < len(pre)+len(post) || line[:len(pre)] != pre || line[len(line)-len(post):] != post {
		t.Fatalf("%s: unexpected corpus entry %q...", name, line[:min(len(line), 40)])
	}
	s, err := strconv.Unquote(line[len(pre) : len(line)-len(post)])
	if err != nil {
		t.Fatalf("%s: bad quoted literal: %v", name, err)
	}
	return []byte(s)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
