package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// The end-to-end golden corpus: a committed CLF fixture mixing clean,
// malformed, out-of-order, CRLF-terminated, combined-format, filtered, and
// unresolved lines, pinned to checked-in session output. Every ingestion
// variant — batch (sessionize-style Pipeline.ProcessLog) and streaming
// (serve-style Tail/ShardedTail feeding) — must reproduce its golden file
// byte for byte across the whole {workers, shards, depth} sweep, and every
// variant must count the same malformed lines. Regenerate with
//
//	go test ./internal/core -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite the golden corpus outputs")

// goldenMalformed is the number of intentionally broken lines in
// testdata/golden.log: free-text garbage, a truncated date, a bad month, a
// status below 100, and an unclosed request quote.
const goldenMalformed = 5

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read golden %s: %v (run with -update to create)", name, err)
	}
	return b
}

func writeOrCompareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath(name), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t, name)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func renderSessions(t *testing.T, sessions []session.Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := session.WriteAll(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func goldenGraph() *webgraph.Graph {
	g, _ := webgraph.PaperFigure1()
	return g
}

// TestGoldenCorpusBatch pins the sessionize-style batch path: ProcessLog
// over every workers/depth combination produces the committed session file
// and stats line.
func TestGoldenCorpusBatch(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()

	ref, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.ProcessLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	writeOrCompareGolden(t, "golden.batch.sessions", renderSessions(t, res.Sessions))
	writeOrCompareGolden(t, "golden.stats", []byte(res.Stats.String()+"\n"))
	if res.Stats.Malformed != goldenMalformed {
		t.Fatalf("batch malformed = %d, want %d", res.Stats.Malformed, goldenMalformed)
	}

	want := readGoldenOrGot(t, "golden.batch.sessions", renderSessions(t, res.Sessions))
	for _, workers := range []int{-1, 2, 4, 9} {
		for _, depth := range []int{0, 1, 3} {
			p, err := NewPipeline(Config{Graph: g, Workers: workers, StreamDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.ProcessLog(bytes.NewReader(log))
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != res.Stats {
				t.Fatalf("workers=%d depth=%d: stats %+v, want %+v", workers, depth, got.Stats, res.Stats)
			}
			if !bytes.Equal(renderSessions(t, got.Sessions), want) {
				t.Fatalf("workers=%d depth=%d: sessions differ from golden", workers, depth)
			}
		}
	}
}

// readGoldenOrGot returns the golden bytes, or (under -update, when the file
// was just rewritten) the freshly produced bytes.
func readGoldenOrGot(t *testing.T, name string, got []byte) []byte {
	if *update {
		return got
	}
	return readGolden(t, name)
}

// TestGoldenCorpusStream pins the serve-style streaming path: every record
// source (ReadAll, the parallel batch read ProcessLog collects from
// StreamChunked, Stream, StreamChunked, and Run) feeding every processor
// (Tail, ShardedTail) across the {workers, shards, depth} sweep emits
// byte-identical sessions — the finalized-during-feed prefix and the Flush
// tail concatenated — and the same malformed count.
func TestGoldenCorpusStream(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()

	// Reference: single Tail fed from the sequential reader.
	refRecords, refBad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if refBad != goldenMalformed {
		t.Fatalf("ReadAll malformed = %d, want %d", refBad, goldenMalformed)
	}
	refTail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var refSessions []session.Session
	for _, rec := range refRecords {
		refSessions = append(refSessions, refTail.Push(rec)...)
	}
	refSessions = append(refSessions, refTail.Flush()...)
	writeOrCompareGolden(t, "golden.stream.sessions", renderSessions(t, refSessions))
	want := readGoldenOrGot(t, "golden.stream.sessions", renderSessions(t, refSessions))

	// makeSink builds a processor with push/flush hooks for the sweep.
	type proc struct {
		name  string
		push  func(clf.Record) []session.Session
		flush func() []session.Session
	}
	newProc := func(t *testing.T, shards, workers, depth int) proc {
		cfg := Config{Graph: g, Workers: workers, StreamDepth: depth}
		if shards == 0 {
			tl, err := NewTail(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			return proc{name: "tail", push: tl.Push, flush: tl.Flush}
		}
		st, err := NewShardedTail(cfg, 0, shards)
		if err != nil {
			t.Fatal(err)
		}
		return proc{name: fmt.Sprintf("sharded/%d", shards), push: st.Push, flush: st.Flush}
	}

	type source struct {
		name string
		feed func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int
	}
	feedAll := func(records []clf.Record, bad int) func(*testing.T, func(clf.Record) []session.Session, *[]session.Session) int {
		return func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int {
			for _, rec := range records {
				*collect = append(*collect, push(rec)...)
			}
			return bad
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, depth := range []int{1, 2, 8} {
			workers, depth := workers, depth
			var parRecords []clf.Record
			parBad, err := clf.StreamChunked(bytes.NewReader(log), workers, 4*workers, 0, func(recs []clf.Record) {
				parRecords = append(parRecords, recs...)
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sources := []source{
				{"readall", feedAll(refRecords, refBad)},
				{fmt.Sprintf("readallparallel/w%d", workers), feedAll(parRecords, parBad)},
				{"stream", func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int {
					bad, err := clf.Stream(bytes.NewReader(log), func(rec clf.Record) {
						*collect = append(*collect, push(rec)...)
					})
					if err != nil {
						t.Fatal(err)
					}
					return bad
				}},
				{fmt.Sprintf("streamparallel/w%d/d%d", workers, depth), func(t *testing.T, push func(clf.Record) []session.Session, collect *[]session.Session) int {
					bad, err := clf.StreamChunked(bytes.NewReader(log), workers, depth, 0, func(recs []clf.Record) {
						for _, rec := range recs {
							*collect = append(*collect, push(rec)...)
						}
					}, nil)
					if err != nil {
						t.Fatal(err)
					}
					return bad
				}},
			}
			for _, src := range sources {
				for _, shards := range []int{0, 1, 3, 8} {
					p := newProc(t, shards, workers, depth)
					var got []session.Session
					bad := src.feed(t, p.push, &got)
					got = append(got, p.flush()...)
					if bad != goldenMalformed {
						t.Fatalf("%s -> %s (w=%d d=%d): malformed %d, want %d",
							src.name, p.name, workers, depth, bad, goldenMalformed)
					}
					if !bytes.Equal(renderSessions(t, got), want) {
						t.Fatalf("%s -> %s (w=%d d=%d): sessions differ from golden:\n%s",
							src.name, p.name, workers, depth, renderSessions(t, got))
					}
				}
			}

			// Run (the serve -backfill / sessionize -stream path) must land
			// on the same golden bytes.
			cfg := Config{Graph: g, Workers: workers, StreamDepth: depth}
			tl, err := NewTail(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			var got []session.Session
			collect := func(s []session.Session) { got = append(got, s...) }
			bad, err := Run(tl, Input{Reader: bytes.NewReader(log)}, RunOptions{Sink: collect})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, tl.Flush()...)
			if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), want) {
				t.Fatalf("Run(tail) (w=%d d=%d): output differs from golden (malformed=%d)", workers, depth, bad)
			}
			for _, shards := range []int{1, 3, 8} {
				st, err := NewShardedTail(cfg, 0, shards)
				if err != nil {
					t.Fatal(err)
				}
				got = nil
				bad, err := Run(st, Input{Reader: bytes.NewReader(log)}, RunOptions{Sink: collect})
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, st.Flush()...)
				if bad != goldenMalformed || !bytes.Equal(renderSessions(t, got), want) {
					t.Fatalf("Run(sharded) (w=%d d=%d s=%d): output differs from golden (malformed=%d)",
						workers, depth, shards, bad)
				}
			}
		}
	}
}
