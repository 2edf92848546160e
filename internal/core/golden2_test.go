package core

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The second golden corpus: a distribution-scale fixture produced by the
// agent simulator over a generated topology — thousands of records from
// hundreds of interleaved users, shared proxy IPs included. It catches
// distribution-level regressions (shard balance, burst interleaving, intern
// arena behaviour) that the 25-line hand-written corpus cannot. The
// topology, log, and expected outputs are committed; regenerate all of them
// with
//
//	go test ./internal/core -run TestGoldenCorpusSimgen -update
const (
	golden2Seed   = 11
	golden2Agents = 150
)

// regenGolden2 deterministically rebuilds the simgen fixture inputs.
func regenGolden2(t *testing.T) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 8, StartPageFraction: 0.08,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(golden2Seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = golden2Agents
	params.Seed = golden2Seed + 1
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}

	var topo bytes.Buffer
	bw := bufio.NewWriter(&topo)
	if err := g.Encode(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if err := os.WriteFile(goldenPath("golden2.topology.json"), topo.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	for _, rec := range res.Log(g) {
		log.WriteString(rec.String())
		log.WriteByte('\n')
	}
	if err := os.WriteFile(goldenPath("golden2.log"), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func golden2Graph(t *testing.T) *webgraph.Graph {
	t.Helper()
	g, err := webgraph.Decode(bytes.NewReader(readGolden(t, "golden2.topology.json")))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGoldenCorpusSimgen pins batch and streaming processing of the simgen
// corpus across the reader × processor sweep, byte for byte.
func TestGoldenCorpusSimgen(t *testing.T) {
	if *update {
		regenGolden2(t)
	}
	g := golden2Graph(t)
	log := readGolden(t, "golden2.log")

	// Batch reference and sweep.
	ref, err := NewPipeline(Config{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.ProcessLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Malformed != 0 {
		t.Fatalf("simgen corpus has %d malformed lines, want 0", res.Stats.Malformed)
	}
	writeOrCompareGolden(t, "golden2.batch.sessions", renderSessions(t, res.Sessions))
	wantBatch := readGoldenOrGot(t, "golden2.batch.sessions", renderSessions(t, res.Sessions))
	for _, workers := range []int{-1, 3} {
		for _, depth := range []int{0, 2} {
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
			if !bytes.Equal(renderSessions(t, got.Sessions), wantBatch) {
				t.Fatalf("workers=%d depth=%d: batch sessions differ from golden2", workers, depth)
			}
		}
	}

	// Streaming reference (single Tail, sequential feed) and sweep.
	refTail, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("ReadAll malformed = %d, want 0", bad)
	}
	var refStream []session.Session
	for _, rec := range records {
		refStream = append(refStream, refTail.Push(rec)...)
	}
	refStream = append(refStream, refTail.Flush()...)
	writeOrCompareGolden(t, "golden2.stream.sessions", renderSessions(t, refStream))
	wantStream := readGoldenOrGot(t, "golden2.stream.sessions", renderSessions(t, refStream))

	for _, shards := range []int{1, 3, 5} {
		for _, workers := range []int{1, 3} {
			for _, depth := range []int{1, 4} {
				name := fmt.Sprintf("shards=%d workers=%d depth=%d", shards, workers, depth)
				cfg := Config{Graph: g, Workers: workers, StreamDepth: depth}
				st, err := NewShardedTail(cfg, 0, shards)
				if err != nil {
					t.Fatal(err)
				}
				var got []session.Session
				malformed, err := Run(st, Input{Reader: bytes.NewReader(log)}, RunOptions{Sink: func(s []session.Session) {
					got = append(got, s...)
				}})
				if err != nil {
					t.Fatal(err)
				}
				if malformed != 0 {
					t.Fatalf("%s: malformed = %d, want 0", name, malformed)
				}
				got = append(got, st.Flush()...)
				if !bytes.Equal(renderSessions(t, got), wantStream) {
					t.Fatalf("%s: streamed sessions differ from golden2", name)
				}
			}
		}
	}

	// The offset-reporting path must emit the identical stream too.
	st, err := NewShardedTail(Config{Graph: g, Workers: 2, StreamDepth: 2, StreamChunkBytes: 16 << 10}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	var lastOff int64
	if _, err := Run(st, Input{Reader: bytes.NewReader(log)}, RunOptions{
		Sink:     func(s []session.Session) { got = append(got, s...) },
		Progress: func(pos clf.FilePos) error { lastOff = pos.Offset; return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if lastOff != int64(len(log)) {
		t.Fatalf("final offset %d, want %d", lastOff, len(log))
	}
	got = append(got, st.Flush()...)
	if !bytes.Equal(renderSessions(t, got), wantStream) {
		t.Fatal("progress-reporting Run sessions differ from golden2")
	}
}
