package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"

	"smartsra/internal/clf"
)

// sourceBench holds the per-source-kind throughput measurements shared by
// -benchingest and -benchstream: the same simulated log streamed through
// clf.StreamFilesChunked from a plain file via the buffered reader, the
// same file via mmap, and a gzip copy through the decode path. All three drop records
// as they arrive (no retention), so the numbers are directly comparable to
// each other and to the in-memory stream baselines measured the same way.
type sourceBench struct {
	// FileRecsPerSec reads the plain file with mmap disabled — the
	// buffered-reader source, the floor mmap has to beat.
	FileRecsPerSec float64 `json:"file_recs_per_sec"`
	// MmapRecsPerSec reads the same file through the zero-copy mmap source
	// (the io.ReadFull fallback on platforms without mmap support).
	MmapRecsPerSec float64 `json:"mmap_recs_per_sec"`
	// GzipRecsPerSec reads a gzip copy through the decode path; offsets
	// count decoded bytes.
	GzipRecsPerSec float64 `json:"gzip_recs_per_sec"`
}

// measureSources writes data to a temp plain file and a gzip copy, then
// times clf.StreamFilesChunked over each source kind at the given worker
// width (<= 0 means all cores, matching clf.StreamConfig).
func measureSources(data []byte, recs float64, workers int) (sourceBench, error) {
	var sb sourceBench
	dir, err := os.MkdirTemp("", "benchsource")
	if err != nil {
		return sb, err
	}
	defer os.RemoveAll(dir)
	plain := filepath.Join(dir, "bench.log")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		return sb, err
	}
	gzPath := filepath.Join(dir, "bench.log.gz")
	gf, err := os.Create(gzPath)
	if err != nil {
		return sb, err
	}
	zw := gzip.NewWriter(gf)
	if _, err := zw.Write(data); err != nil {
		return sb, err
	}
	if err := zw.Close(); err != nil {
		return sb, err
	}
	if err := gf.Close(); err != nil {
		return sb, err
	}

	run := func(path string, noMmap bool) (float64, error) {
		var ferr error
		sec, _ := measure(func() {
			if _, err := clf.StreamFilesChunked([]string{path},
				clf.StreamConfig{Workers: workers, NoMmap: noMmap}, dropChunk, nil); err != nil && ferr == nil {
				ferr = err
			}
		})
		if ferr != nil {
			return 0, ferr
		}
		return recs / sec, nil
	}
	if sb.FileRecsPerSec, err = run(plain, true); err != nil {
		return sb, err
	}
	if sb.MmapRecsPerSec, err = run(plain, false); err != nil {
		return sb, err
	}
	if sb.GzipRecsPerSec, err = run(gzPath, false); err != nil {
		return sb, err
	}
	return sb, nil
}

// dropRecord is the no-op consumer every reader benchmark times. It is a
// variable so each record costs one indirect call: a constant function
// would let the compiler delete the per-record visit, and the benchmarks
// would time a cheaper loop than any real consumer runs.
var dropRecord = func(clf.Record) {}

// dropChunk visits a delivered chunk record by record through dropRecord.
func dropChunk(recs []clf.Record) {
	for i := range recs {
		dropRecord(recs[i])
	}
}

// parseDrop parses data the way the parallel-parse measurements time it:
// one worker runs the line-at-a-time scanner, more fan ~chunkBytes chunks
// (<= 0 means the ~1 MiB default) out over the worker pool.
func parseDrop(data []byte, workers, depth, chunkBytes int) error {
	if workers == 1 {
		_, err := clf.Stream(bytes.NewReader(data), dropRecord)
		return err
	}
	_, err := clf.StreamChunked(bytes.NewReader(data), workers, depth, chunkBytes, dropChunk, nil)
	return err
}
