package core

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// writeGoldenFile writes data to dir/name, gzip-compressing when gz is set,
// and returns the path.
func writeGoldenFile(t *testing.T, dir, name string, data []byte, gz bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if gz {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		data = buf.Bytes()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// splitGoldenLines cuts the corpus at line boundaries into n roughly equal
// parts (multi-file semantics complete each file's final line, so only
// line-aligned splits preserve the record stream).
func splitGoldenLines(t *testing.T, log []byte, n int) [][]byte {
	t.Helper()
	lines := bytes.SplitAfter(log, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < n {
		t.Fatalf("corpus has %d lines, cannot split into %d files", len(lines), n)
	}
	per := (len(lines) + n - 1) / n
	var parts [][]byte
	for i := 0; i < len(lines); i += per {
		end := i + per
		if end > len(lines) {
			end = len(lines)
		}
		parts = append(parts, bytes.Join(lines[i:end], nil))
	}
	return parts
}

// TestGoldenCorpusSources pins the on-disk Source layer to the same golden
// bytes as the in-memory readers: the corpus served from a plain file (mmap
// and buffered-reader sources), a gzip copy, and a rotated three-file set
// with a gzip member and a missing final newline, through both the raw
// clf.StreamFilesChunked reader and Run on Tail/ShardedTail, across
// worker/shard widths.
func TestGoldenCorpusSources(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	want := readGolden(t, "golden.stream.sessions")

	dir := t.TempDir()
	parts := splitGoldenLines(t, log, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	// The first member loses its trailing newline: the reader must complete
	// that record at the rotation boundary, not merge it into the next file.
	layouts := map[string][]string{
		"plain": {writeGoldenFile(t, dir, "whole.log", log, false)},
		"gzip":  {writeGoldenFile(t, dir, "whole.log.gz", log, true)},
		"rotated": {
			writeGoldenFile(t, dir, "part.log.0", bytes.TrimSuffix(parts[0], []byte("\n")), false),
			writeGoldenFile(t, dir, "part.log.1.gz", parts[1], true),
			writeGoldenFile(t, dir, "part.log.2", parts[2], false),
		},
	}

	for name, paths := range layouts {
		for _, noMmap := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/nommap=%v/w%d", name, noMmap, workers)

				// Raw reader into a single Tail.
				tl, err := NewTail(Config{Graph: g}, 0)
				if err != nil {
					t.Fatal(err)
				}
				var got []session.Session
				bad, err := clf.StreamFilesChunked(paths, clf.StreamConfig{Workers: workers, NoMmap: noMmap},
					func(recs []clf.Record) {
						for _, rec := range recs {
							got = append(got, tl.Push(rec)...)
						}
					}, nil)
				if err != nil {
					t.Fatalf("%s: StreamFilesChunked: %v", label, err)
				}
				got = append(got, tl.Flush()...)
				if bad != goldenMalformed {
					t.Fatalf("%s: malformed %d, want %d", label, bad, goldenMalformed)
				}
				if !bytes.Equal(renderSessions(t, got), want) {
					t.Fatalf("%s: sessions differ from golden", label)
				}

				// Run over the path set (the sessionize/serve deployment).
				cfg := Config{Graph: g, Workers: workers}
				tl2, err := NewTail(cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				got = nil
				collect := func(s []session.Session) { got = append(got, s...) }
				bad, err = Run(tl2, Input{Paths: paths}, RunOptions{Sink: collect})
				if err != nil {
					t.Fatalf("%s: Run(Tail): %v", label, err)
				}
				got = append(got, tl2.Flush()...)
				if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), want) {
					t.Fatalf("%s: Run(Tail) differs from golden (malformed=%d)", label, bad)
				}

				for _, shards := range []int{1, 3} {
					st, err := NewShardedTail(cfg, 0, shards)
					if err != nil {
						t.Fatal(err)
					}
					got = nil
					bad, err := Run(st, Input{Paths: paths}, RunOptions{Sink: collect})
					if err != nil {
						t.Fatalf("%s s=%d: Run(ShardedTail): %v", label, shards, err)
					}
					got = append(got, st.Flush()...)
					if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), want) {
						t.Fatalf("%s s=%d: Run(ShardedTail) differs from golden (malformed=%d)",
							label, shards, bad)
					}
				}
			}
		}
	}
}
