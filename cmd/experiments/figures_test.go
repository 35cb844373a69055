package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracefw/internal/core"
	"tracefw/internal/interval"
	"tracefw/internal/merge"
)

// TestPaperScaleMergedDigests pins the merged interval bytes of the
// FLASH-like (Figures 6 and 7) and sPPM-like (Figures 8 and 9) runs to
// SHA-256 digests. At paper scale every frame's prologue fits in half a
// frame, so the frame-sizing rule must leave these files unchanged.
func TestPaperScaleMergedDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (*core.Run, error)
		want string
	}{
		{"flash", func() (*core.Run, error) { return flashRun(25) }, "76bd4bfcc73229969e2cd4f7598122dd1d1fab93d090bb00230bbf61480de4ed"},
		{"sppm", sppmRun, "864308823f1687d039223b7484a34bdf11f7877a1cf527aecafae839d317e6cb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			defer run.Close()
			// Re-merge the run's interval files with the options core
			// used, so the digest covers exactly the merged file's bytes.
			opts := run.Config.Merge
			opts.Writer = run.Config.Convert
			sb := interval.NewSeekBuffer()
			if _, err := merge.Merge(run.Intervals, sb, opts); err != nil {
				t.Fatal(err)
			}
			if int64(sb.Len()) != run.Merged.Size {
				t.Fatalf("re-merge wrote %d bytes, the run's merged file has %d", sb.Len(), run.Merged.Size)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(sb.Bytes())); got != tc.want {
				t.Fatalf("merged sha256 %s, want %s", got, tc.want)
			}
		})
	}
}

// TestFigure6OutArtifact reruns the fig6 experiment and checks its table
// and heatmap against the copies checked in under out/, byte for byte
// (regenerate with go run ./cmd/experiments -only fig6 -out DIR and copy
// the two files).
func TestFigure6OutArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := runFig6(&env{out: dir, summary: &strings.Builder{}}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig6.tsv", "fig6.svg"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "out", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("out/%s is stale: rebuilt %d bytes differ from the checked-in %d bytes", name, len(got), len(want))
		}
	}
}
