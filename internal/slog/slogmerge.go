package slog

import (
	"io"
	"os"

	"tracefw/internal/interval"
	"tracefw/internal/merge"
)

// Slogmerge is the paper's slogmerge utility: merge the individual
// interval files and convert the result to SLOG in one step. The
// intermediate merged interval file is kept in memory.
func Slogmerge(files []*interval.File, dst io.WriteSeeker, mopts merge.Options, sopts Options) (*merge.Result, *BuildResult, error) {
	tmp := interval.NewSeekBuffer()
	mres, err := merge.Merge(files, tmp, mopts)
	if err != nil {
		return nil, nil, err
	}
	mf, err := interval.NewFile(tmp)
	if err != nil {
		return mres, nil, err
	}
	bres, err := Build(mf, dst, sopts)
	return mres, bres, err
}

// SlogmergeFiles runs Slogmerge over files on disk.
func SlogmergeFiles(paths []string, outPath string, mopts merge.Options, sopts Options) (*merge.Result, *BuildResult, error) {
	files := make([]*interval.File, 0, len(paths))
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, p := range paths {
		f, err := interval.Open(p)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	out, err := os.Create(outPath)
	if err != nil {
		return nil, nil, err
	}
	mres, bres, err := Slogmerge(files, out, mopts, sopts)
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	return mres, bres, err
}
