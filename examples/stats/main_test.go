package main

import (
	"os"
	"path/filepath"
	"testing"

	"tracefw/internal/render"
)

// TestFigure6Artifact rebuilds the example's Figure 6 table and checks
// it against the fig6.tsv and fig6.svg checked in at the repository
// root, byte for byte: a pipeline change that moves the table must
// regenerate them (go run ./examples/stats from the root).
func TestFigure6Artifact(t *testing.T) {
	run, err := execute()
	if err != nil {
		t.Fatal(err)
	}
	defer run.Close()
	tables, err := run.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	fig6 := tables[0]
	for name, got := range map[string]string{
		"fig6.tsv": fig6.TSV(),
		"fig6.svg": render.StatsHeatmapSVG(fig6),
	} {
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s is stale: rebuilt %d bytes differ from the checked-in %d bytes", name, len(got), len(want))
		}
	}
}
