package clf

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTestFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeGzipFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// rotatedSet writes a synthetic log as a 3-file rotated set — first part
// without its trailing newline (a rotation can cut anywhere), middle part
// gzip-compressed — and returns the paths plus the full concatenated text.
func rotatedSet(t *testing.T, seed int64, lines int) (paths []string, full string) {
	t.Helper()
	log := synthLog(seed, lines)
	split := strings.SplitAfter(log, "\n")
	a, b := len(split)/3, 2*len(split)/3
	p1 := strings.TrimSuffix(strings.Join(split[:a], ""), "\n")
	p2 := strings.Join(split[a:b], "")
	p3 := strings.Join(split[b:], "")
	dir := t.TempDir()
	paths = []string{
		writeTestFile(t, dir, "access.log.1", p1),
		writeGzipFile(t, dir, "access.log.2.gz", p2),
		writeTestFile(t, dir, "access.log.3", p3),
	}
	return paths, p1 + "\n" + p2 + p3
}

func TestResolveLogPaths(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"access.log", "access.log.1", "access.log.2.gz"} {
		writeTestFile(t, dir, name, "x\n")
	}
	got, err := ResolveLogPaths(filepath.Join(dir, "access.log*"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		filepath.Join(dir, "access.log"),
		filepath.Join(dir, "access.log.1"),
		filepath.Join(dir, "access.log.2.gz"),
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("glob: got %v, want %v", got, want)
	}

	// Comma lists resolve, dedupe, and sort lexically.
	spec := want[1] + "," + want[0] + "," + want[1]
	got, err = ResolveLogPaths(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("comma list: got %v", got)
	}

	if _, err := ResolveLogPaths(filepath.Join(dir, "nothing*")); err == nil {
		t.Fatal("want error for glob with no matches")
	}
	if _, err := ResolveLogPaths("-," + want[0]); err == nil {
		t.Fatal("want error mixing stdin with files")
	}
}

// filesAll collects StreamFilesChunked's output, copying each chunk's
// records out of the callback.
func filesAll(paths []string, cfg StreamConfig, progress func(FilePos) error) ([]Record, int, error) {
	var recs []Record
	bad, err := StreamFilesChunked(paths, cfg, func(c []Record) { recs = append(recs, c...) }, progress)
	return recs, bad, err
}

// TestStreamFilesMatchesConcat is the multi-file equivalence bar: a rotated
// plain/gzip/plain set streams byte-identically to zcat-then-concatenate
// through the sequential reader, across worker counts, chunk sizes, and
// mmap on/off.
func TestStreamFilesMatchesConcat(t *testing.T) {
	paths, full := rotatedSet(t, 11, 600)
	want, wantBad, err := ReadAll(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}

	// The shared CLI opener must present the same concatenated view.
	rc, rpaths, err := OpenLogInput(strings.Join(paths, ","))
	if err != nil {
		t.Fatal(err)
	}
	if len(rpaths) != len(paths) {
		t.Fatalf("OpenLogInput paths: %v", rpaths)
	}
	cat, catBad, err := ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cat) != len(want) || catBad != wantBad {
		t.Fatalf("OpenLogInput: %d/%d records, want %d/%d", len(cat), catBad, len(want), wantBad)
	}

	for _, workers := range []int{1, 2, 4} {
		for _, noMmap := range []bool{false, true} {
			for _, chunk := range []int{256, 4096, readChunkSize} {
				got, bad, err := filesAll(paths, StreamConfig{
					Workers: workers, ChunkBytes: chunk, NoMmap: noMmap,
				}, nil)
				if err != nil {
					t.Fatalf("workers=%d noMmap=%v chunk=%d: %v", workers, noMmap, chunk, err)
				}
				if bad != wantBad || len(got) != len(want) {
					t.Fatalf("workers=%d noMmap=%v chunk=%d: %d/%d records, want %d/%d",
						workers, noMmap, chunk, len(got), bad, len(want), wantBad)
				}
				for i := range got {
					if !recordsMatch(got[i], want[i]) {
						t.Fatalf("workers=%d noMmap=%v chunk=%d: record %d differs", workers, noMmap, chunk, i)
					}
				}
			}
		}
	}
}

// TestStreamFilesResume: every progress-reported FilePos is a valid resume
// point — restarting there (including mid-gzip, which decodes and discards
// to the offset) replays exactly the unseen suffix.
func TestStreamFilesResume(t *testing.T) {
	paths, full := rotatedSet(t, 23, 400)
	want, _, err := ReadAll(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}

	type mark struct {
		pos  FilePos
		seen int
	}
	var marks []mark
	var count int
	_, err = StreamFilesChunked(paths, StreamConfig{Workers: 2, ChunkBytes: 512},
		func(recs []Record) { count += len(recs) },
		func(pos FilePos) error {
			marks = append(marks, mark{pos, count})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(want) || len(marks) < 10 {
		t.Fatalf("collection run: %d records (%d marks), want %d", count, len(marks), len(want))
	}

	for i, m := range marks {
		if i%5 != 0 {
			continue
		}
		for _, workers := range []int{1, 3} {
			got, _, err := filesAll(paths, StreamConfig{
				Workers: workers, ChunkBytes: 512, Start: m.pos,
			}, nil)
			if err != nil {
				t.Fatalf("resume at %+v: %v", m.pos, err)
			}
			rest := want[m.seen:]
			if len(got) != len(rest) {
				t.Fatalf("resume at %+v workers=%d: %d records, want %d", m.pos, workers, len(got), len(rest))
			}
			for j := range got {
				if !recordsMatch(got[j], rest[j]) {
					t.Fatalf("resume at %+v workers=%d: record %d differs", m.pos, workers, j)
				}
			}
		}
	}
}

// TestStreamFilesProgressAbort: a progress error stops the stream cleanly —
// the error comes back, emission halts at the rejected boundary, and every
// source (including in-flight mmaps and the gzip decode-ahead goroutines)
// is closed without leaking or crashing.
func TestStreamFilesProgressAbort(t *testing.T) {
	paths, _ := rotatedSet(t, 31, 400)
	errStop := errors.New("stop here")
	for _, workers := range []int{1, 4} {
		var emitted, boundaries, atAbort int
		_, err := StreamFilesChunked(paths, StreamConfig{Workers: workers, ChunkBytes: 512},
			func(recs []Record) { emitted += len(recs) },
			func(FilePos) error {
				boundaries++
				if boundaries == 7 {
					atAbort = emitted
					return errStop
				}
				return nil
			})
		if !errors.Is(err, errStop) {
			t.Fatalf("workers=%d: err = %v, want errStop", workers, err)
		}
		if boundaries != 7 {
			t.Fatalf("workers=%d: progress kept firing after abort (%d calls)", workers, boundaries)
		}
		if emitted != atAbort {
			t.Fatalf("workers=%d: %d records emitted after abort", workers, emitted-atAbort)
		}
	}
}

// TestStreamFilesOversizedLine: the skip-and-count policy holds on every
// source kind — mmap windows, the buffered reader, and gzip.
func TestStreamFilesOversizedLine(t *testing.T) {
	body := sampleLine + "\n" + strings.Repeat("z", maxLineBytes+2) + "\n" + sampleLine + "\n"
	dir := t.TempDir()
	cases := map[string]string{
		"mmap":   writeTestFile(t, dir, "plain.log", body),
		"reader": writeTestFile(t, dir, "reader.log", body),
		"gzip":   writeGzipFile(t, dir, "compressed.log.gz", body),
	}
	for name, path := range cases {
		for _, workers := range []int{1, 3} {
			got, bad, err := filesAll([]string{path}, StreamConfig{
				Workers: workers, NoMmap: name == "reader",
			}, nil)
			recs := len(got)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if recs != 2 || bad != 1 {
				t.Fatalf("%s workers=%d: %d records / %d malformed, want 2/1", name, workers, recs, bad)
			}
		}
	}
}

// TestOpenDecodedSniffsGzip: decoding is by magic bytes, not extension.
func TestOpenDecodedSniffsGzip(t *testing.T) {
	dir := t.TempDir()
	path := writeGzipFile(t, dir, "misnamed.log", "hello\nworld\n")
	rc, err := OpenDecoded(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\nworld\n" {
		t.Fatalf("decoded %q", data)
	}
}

func TestOpenLogInputStdin(t *testing.T) {
	rc, paths, err := OpenLogInput("-")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if paths != nil {
		t.Fatalf("stdin must report no paths, got %v", paths)
	}
}

// TestSourceKinds: openSourceAt picks mmap for plain files (when supported),
// reader when disabled, gzip by sniffing.
func TestSourceKinds(t *testing.T) {
	dir := t.TempDir()
	plain := writeTestFile(t, dir, "a.log", sampleLine+"\n")
	gzp := writeGzipFile(t, dir, "a.log.gz", sampleLine+"\n")

	s, err := openSourceAt(plain, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	wantKind := SourceMmap
	if !MmapSupported {
		wantKind = SourceReader
	}
	if s.Kind() != wantKind {
		t.Fatalf("plain file kind = %v, want %v", s.Kind(), wantKind)
	}
	s.Close()

	s, err = openSourceAt(plain, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != SourceReader {
		t.Fatalf("NoMmap kind = %v", s.Kind())
	}
	s.Close()

	s, err = openSourceAt(gzp, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != SourceGzip {
		t.Fatalf("gzip kind = %v", s.Kind())
	}
	s.Close()
}
