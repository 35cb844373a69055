// stats reproduces the paper's Figure 6 and §3.2: generate the
// pre-defined statistics tables (including the per-node × 50-time-bin
// "interesting duration" table), run the paper's example program in the
// declarative table language, and render the statistics viewer's output.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"tracefw/internal/core"
	"tracefw/internal/render"
	"tracefw/internal/workload"
)

// execute runs the FLASH-like workload whose predefined tables this
// example prints; the checked-in fig6.tsv and fig6.svg come from it.
func execute() (*core.Run, error) {
	return core.Execute(core.Config{
		Nodes:        4,
		CPUsPerNode:  4,
		TasksPerNode: 1,
		Seed:         11,
	}, workload.Flash{Iters: 25, RefineEach: 5}.Main())
}

func main() {
	run, err := execute()
	if err != nil {
		log.Fatal(err)
	}
	defer run.Close()

	// The paper's example program (§3.2).
	tables, err := run.Stats(`table name=sample condition=(start < 2)
		x=("node", node)
		x=("processor", cpu)
		y=("avg(duration)", dura, avg)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("paper's example program:")
	fmt.Println(indent(tables[0].TSV()))

	// The pre-defined tables, led by the Figure 6 table.
	predefined, err := run.Stats("")
	if err != nil {
		log.Fatal(err)
	}
	for _, tb := range predefined {
		fmt.Printf("predefined table %q: %d rows\n", tb.Name, len(tb.Rows))
	}
	fig6 := predefined[0]
	if err := os.WriteFile("fig6.tsv", []byte(fig6.TSV()), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("fig6.svg", []byte(render.StatsHeatmapSVG(fig6)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote fig6.tsv and fig6.svg (the statistics viewer's heatmap)")

	// The reading the paper makes from this table: which time ranges are
	// interesting (busy with non-Running states) and which are quiet.
	perBin := map[int]float64{}
	for _, r := range fig6.Rows {
		perBin[int(r.X[1].F)] += r.Y[0]
	}
	var quiet, busyBins int
	for b := 0; b < 50; b++ {
		if perBin[b] == 0 {
			quiet++
		} else {
			busyBins++
		}
	}
	fmt.Printf("bins with interesting activity: %d, quiet bins: %d\n", busyBins, quiet)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}
