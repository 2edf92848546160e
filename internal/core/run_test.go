package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// runCase is one point of the Run sweep: processor × parse workers ×
// delivery granularity × input kind.
type runCase struct {
	shards, workers, batch int
	file                   bool
}

func (c runCase) String() string {
	in := "reader"
	if c.file {
		in = "file"
	}
	return fmt.Sprintf("shards=%d/workers=%d/batch=%d/%s", c.shards, c.workers, c.batch, in)
}

func runCases() []runCase {
	var cases []runCase
	for _, shards := range []int{0, 3} { // 0: plain Tail
		for _, workers := range []int{1, 2} {
			for _, batch := range []int{1, 0} { // per record, whole chunk
				for _, file := range []bool{false, true} {
					cases = append(cases, runCase{shards, workers, batch, file})
				}
			}
		}
	}
	return cases
}

// run streams log (also stored at path) through Run for one sweep point
// and returns everything emitted, Flush included.
func (c runCase) run(t *testing.T, cfg Config, log []byte, path string, opt RunOptions) []session.Session {
	t.Helper()
	cfg.Workers, cfg.BatchRecords = c.workers, c.batch
	// Small chunks put many chunk boundaries — and cut boundaries inside
	// chunks — into a modest log.
	cfg.StreamChunkBytes = 4 << 10
	var s Sessionizer
	var err error
	if c.shards == 0 {
		s, err = NewTail(cfg, 0)
	} else {
		s, err = NewShardedTail(cfg, 0, c.shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Reader: bytes.NewReader(log)}
	if c.file {
		in = Input{Paths: []string{path}}
	}
	var got []session.Session
	opt.Sink = func(out []session.Session) { got = append(got, out...) }
	malformed, err := Run(s, in, opt)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	if malformed != 0 {
		t.Fatalf("%s: %d malformed lines", c, malformed)
	}
	return append(got, s.Flush()...)
}

// simLog simulates one seed's traffic and returns its topology, the CLF log
// text, and the records parsed back from it.
func simLog(t *testing.T, seed int64) (*webgraph.Graph, []byte, []clf.Record) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 60, AvgOutDegree: 5, StartPageFraction: 0.1,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = 80
	params.Seed = seed
	sim, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.WriteAll(&buf, sim.Log(g)); err != nil {
		t.Fatal(err)
	}
	records, bad, err := clf.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("seed %d: reparse: %d malformed, %v", seed, bad, err)
	}
	return g, buf.Bytes(), records
}

// sessionMultiset renders sessions sorted, for comparisons where only the
// emission order may differ.
func sessionMultiset(sessions []session.Session) []string {
	out := make([]string, len(sessions))
	for i, s := range sessions {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

// randomCuts places a few journal-shaped cuts at random record boundaries
// (duplicates and a boundary before the first record possible), with
// cutoffs from just after the boundary record to well past the session gap,
// so some cuts close bursts and some close nothing. The last cut always
// sits after the final record with a cutoff inside the gap: it closes only
// part of what is open, so skipping it changes what Flush emits.
func randomCuts(rng *rand.Rand, records []clf.Record) []ExpiryCut {
	n := len(records)
	at := make([]int, 1+rng.Intn(8))
	for i := range at {
		at[i] = rng.Intn(n + 1)
	}
	sort.Ints(at)
	at = append(at, n)
	cuts := make([]ExpiryCut, len(at))
	for i, a := range at {
		ref := records[0].Time
		if a > 0 {
			ref = records[a-1].Time
		}
		lead := time.Duration(rng.Int63n(int64(2 * session.DefaultPageStay)))
		if i == len(at)-1 {
			lead = time.Duration(rng.Int63n(int64(session.DefaultPageStay)))
		}
		cuts[i] = ExpiryCut{Seq: int64(i + 1), Records: int64(a), At: ref.Add(lead)}
	}
	return cuts
}

// TestRunMatchesBatchProperty is streaming ≡ batch as a property over
// simulator seeds. For every seed, Run over {Tail, 3-shard ShardedTail} ×
// workers {1, 2} × delivery {per record, whole chunk} × {reader, file}:
//
//   - without cuts emits exactly the sessions Pipeline.ProcessRecords
//     reconstructs from the same records, for the gap-bounded heuristics
//     heur2 and heur4 (emission order aside);
//   - with random cuts emits, byte for byte, what a record-at-a-time Push
//     loop with Expire(At) at each cut boundary emits.
func TestRunMatchesBatchProperty(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	expired := 0 // sessions the reference's cuts closed, over all seeds
	for _, seed := range seeds {
		g, log, records := simLog(t, seed)
		path := filepath.Join(t.TempDir(), "access.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}

		for _, h := range []heuristics.Reconstructor{heuristics.NewTimeGap(), heuristics.NewSmartSRA(g)} {
			cfg := Config{Graph: g, Heuristic: h}
			p, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := p.ProcessRecords(records)
			if err != nil {
				t.Fatal(err)
			}
			want := sessionMultiset(batch.Sessions)
			if len(want) == 0 {
				t.Fatalf("seed %d: no sessions — the property checks nothing", seed)
			}
			for _, c := range runCases() {
				got := sessionMultiset(c.run(t, cfg, log, path, RunOptions{}))
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d %s %s: Run emitted %d sessions differing from ProcessRecords' %d",
						seed, h.Name(), c, len(got), len(want))
				}
			}
		}

		cuts := randomCuts(rand.New(rand.NewSource(seed)), records)
		cfg := Config{Graph: g}
		ref, err := NewTail(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var want []session.Session
		ci := 0
		for i, rec := range records {
			for ; ci < len(cuts) && cuts[ci].Records <= int64(i); ci++ {
				out := ref.Expire(cuts[ci].At)
				expired += len(out)
				want = append(want, out...)
			}
			want = append(want, ref.Push(rec)...)
		}
		for ; ci < len(cuts); ci++ {
			out := ref.Expire(cuts[ci].At)
			expired += len(out)
			want = append(want, out...)
		}
		wantBytes := renderSessions(t, append(want, ref.Flush()...))
		for _, c := range runCases() {
			got := c.run(t, cfg, log, path, RunOptions{Cuts: cuts})
			if !bytes.Equal(renderSessions(t, got), wantBytes) {
				t.Fatalf("seed %d %s: Run with %d cuts differs from the Push+Expire reference", seed, c, len(cuts))
			}
		}
	}
	if expired == 0 {
		t.Fatal("no cut closed a burst — the cut property checks nothing")
	}
}
