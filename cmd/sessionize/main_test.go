package main

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/plan"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// The -stream -checkpoint CLI over a rotated plain+gzip set: whatever state
// a rerun finds — a finished checkpoint, a set renamed under it, a session
// file shorter than it says — the session file must end byte-identical to
// an uninterrupted run over the set as it is now.

// rotatedSet writes a topology and a simulated access log split into a
// rotated set under dir: access.log.0 (half the lines, final newline
// stripped), access.log.1.gz (a quarter, gzip) and access.log.2 (the rest).
// It returns the topology path.
func rotatedSet(t *testing.T, dir string) string {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 10, StartPageFraction: 0.05,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 300
	params.Seed = 4
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, rec := range res.Log(g) {
		lines = append(lines, rec.String()+"\n")
	}
	if len(lines) < 1000 {
		t.Fatalf("corpus has %d lines, want >= 1000", len(lines))
	}
	half, quarter := len(lines)/2, len(lines)*3/4
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("access.log.0", []byte(strings.TrimSuffix(strings.Join(lines[:half], ""), "\n")))
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write([]byte(strings.Join(lines[half:quarter], ""))); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	write("access.log.1.gz", gz.Bytes())
	write("access.log.2", []byte(strings.Join(lines[quarter:], "")))

	var topo bytes.Buffer
	if err := g.Encode(&topo); err != nil {
		t.Fatal(err)
	}
	write("topology.json", topo.Bytes())
	return filepath.Join(dir, "topology.json")
}

// sessionize runs the CLI's streaming path over dir's rotated set into
// sessions, with a checkpoint when ckpt is non-empty, and returns the
// session file.
func sessionize(t *testing.T, topo, dir, sessions, ckpt string) []byte {
	t.Helper()
	o := options{
		topoPath: topo, logPath: filepath.Join(dir, "access.log*"), heur: "heur4",
		stream: true, sessPath: sessions, ckptPath: ckpt, ckptEvery: time.Nanosecond,
	}
	for name, dst := range map[string]*plan.Knob{
		"workers": &o.workers, "shards": &o.shards, "stream-depth": &o.depth,
	} {
		k, err := plan.ParseKnob(name, "auto")
		if err != nil {
			t.Fatal(err)
		}
		*dst = k
	}
	k, err := plan.ParseBatchKnob("auto")
	if err != nil {
		t.Fatal(err)
	}
	o.batch = k
	if err := run(o); err != nil {
		t.Fatalf("sessionize: %v", err)
	}
	out, err := os.ReadFile(sessions)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamCheckpointRecovery(t *testing.T) {
	// completed runs a checkpointed pass to the end over a fresh set and
	// returns the set's directory, the topology and the uninterrupted
	// reference output.
	completed := func(t *testing.T) (dir, topo string, want []byte) {
		dir = t.TempDir()
		topo = rotatedSet(t, dir)
		want = sessionize(t, topo, dir, filepath.Join(dir, "reference.txt"), "")
		if len(want) == 0 {
			t.Fatal("reference run wrote no sessions")
		}
		got := sessionize(t, topo, dir, filepath.Join(dir, "sessions.txt"), filepath.Join(dir, "state.ckpt"))
		if !bytes.Equal(got, want) {
			t.Fatalf("checkpointed run differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
		}
		return dir, topo, want
	}
	rerun := func(dir, topo string) []byte {
		return sessionize(t, topo, dir, filepath.Join(dir, "sessions.txt"), filepath.Join(dir, "state.ckpt"))
	}

	t.Run("rerun of a finished run is a no-op", func(t *testing.T) {
		dir, topo, want := completed(t)
		// Blank out the first record at the same length: a rerun that
		// replayed anything from the start would lose that request's page.
		first := filepath.Join(dir, "access.log.0")
		data, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		nl := bytes.IndexByte(data, '\n')
		copy(data, bytes.Repeat([]byte("#"), nl))
		if err := os.WriteFile(first, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got := rerun(dir, topo); !bytes.Equal(got, want) {
			t.Fatalf("rerun changed the session file (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("renamed set member makes the checkpoint stale", func(t *testing.T) {
		dir, topo, _ := completed(t)
		// access.log.0 now sorts last: the checkpoint's member index 2 names
		// a different, longer file, where its offset would land mid-set.
		if err := os.Rename(filepath.Join(dir, "access.log.0"), filepath.Join(dir, "access.log.3")); err != nil {
			t.Fatal(err)
		}
		want := sessionize(t, topo, dir, filepath.Join(dir, "reference.txt"), "")
		if got := rerun(dir, topo); !bytes.Equal(got, want) {
			t.Fatalf("stale checkpoint did not fall back to a full replay (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("checkpoint ahead of the session file", func(t *testing.T) {
		dir, topo, want := completed(t)
		sessions := filepath.Join(dir, "sessions.txt")
		if err := os.Truncate(sessions, int64(len(want)/2)); err != nil {
			t.Fatal(err)
		}
		if got := rerun(dir, topo); !bytes.Equal(got, want) {
			t.Fatalf("short session file did not fall back to a full replay (%d vs %d bytes)", len(got), len(want))
		}
	})
}
