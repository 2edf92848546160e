package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartsra/internal/core"
	"smartsra/internal/loadgen"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// soakCorpus writes a fixed-seed topology into dir and returns it with a
// simulated request schedule — the shared setup of every subprocess soak.
func soakCorpus(t *testing.T, dir string, agents int, seed int64) (*webgraph.Graph, []simulator.Request) {
	t.Helper()
	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 120, AvgOutDegree: 8, StartPageFraction: 0.08,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(filepath.Join(dir, "topology.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Encode(tf); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	params := simulator.PaperParams()
	params.Agents = agents
	params.Seed = seed
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Schedule(g)
	if len(reqs) < 300 {
		t.Fatalf("schedule too small to soak: %d requests", len(reqs))
	}
	return g, reqs
}

// freeAddr pre-allocates a loopback port so a restarted child can bind the
// same address the load generator is hammering.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// sigtermAndWait shuts the child down gracefully, failing the test on a
// non-zero exit or a hang.
func sigtermAndWait(t *testing.T, child *soakProc) {
	t.Helper()
	if err := child.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- child.cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v\noutput:\n%s", err, child.output())
		}
	case <-time.After(30 * time.Second):
		child.cmd.Process.Kill()
		t.Fatalf("child hung on SIGTERM; output:\n%s", child.output())
	}
}

// TestLiveOfflineEquivalenceWithExpiry is the expiry-determinism pin: a serve
// child runs with periodic expiry ON (the configuration the plain crash soak
// had to exclude), survives a mid-load SIGKILL plus recovery, and after a
// graceful shutdown the offline replay — the access log plus the journaled
// expiry cuts — must reproduce the live session file byte for byte. The cut
// journal is what makes wall-clock expiry replayable: each live Expire is
// recorded as an exact record boundary, and core.Run re-applies it there.
func TestLiveOfflineEquivalenceWithExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess soak")
	}
	const gap = 500 * time.Millisecond
	dir := t.TempDir()
	g, reqs := soakCorpus(t, dir, 150, 7)
	addr := freeAddr(t)
	env := []string{
		"SERVE_SOAK_GAP=" + gap.String(),
		"SERVE_SOAK_EXPIRE=120ms",
	}
	child := startServe(t, dir, addr, env...)

	// Pace the schedule over ~2.5s so expiry ticks land between requests and
	// users who finish early age past the gap while others are still active.
	span := reqs[len(reqs)-1].At.Sub(reqs[0].At)
	speedup := span.Seconds() / 2.5
	repc := make(chan loadgen.Report, 1)
	go func() {
		rep, _ := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  "http://" + addr,
			Requests: reqs,
			Speedup:  speedup,
			Workers:  8,
			Timeout:  2 * time.Second,
			Registry: metrics.NewRegistry(),
		})
		repc <- rep
	}()

	// SIGKILL mid-load: recovery must re-apply the journaled cuts the
	// checkpoint hasn't absorbed, then keep journaling new ones.
	time.Sleep(900 * time.Millisecond)
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait()
	child = startServe(t, dir, addr, env...)
	if !strings.Contains(child.output(), "recovered from") {
		t.Fatalf("restarted child did not run checkpoint recovery; output:\n%s", child.output())
	}

	var rep loadgen.Report
	select {
	case rep = <-repc:
	case <-time.After(120 * time.Second):
		t.Fatal("load generator never finished")
	}
	if rep.Accepted == 0 {
		t.Fatal("no request was ever accepted")
	}
	// Let at least one more expiry sweep run against a quiet tail so the
	// journal also carries a trailing cut (every user idle longer than the
	// gap), then shut down.
	time.Sleep(3 * gap)
	sigtermAndWait(t, child)

	cf, err := os.Open(filepath.Join(dir, "sessions.txt.cuts"))
	if err != nil {
		t.Fatalf("no cut journal: %v\noutput:\n%s", err, child.output())
	}
	cuts, err := core.ReadCuts(cf)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) == 0 {
		t.Fatalf("expiry never journaled a cut — the test exercised nothing; output:\n%s", child.output())
	}

	// The pin: replaying the log with the journaled cuts reproduces the live
	// session file exactly.
	st, err := core.NewShardedTail(core.Config{Graph: g}, gap, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []session.Session
	malformed, err := core.Run(st, core.Input{Paths: []string{filepath.Join(dir, "access.log")}}, core.RunOptions{
		Sink: func(s []session.Session) { sessions = append(sessions, s...) },
		Cuts: cuts,
	})
	if err != nil {
		t.Fatal(err)
	}
	sessions = append(sessions, st.Flush()...)
	var want bytes.Buffer
	if err := session.WriteAll(&want, sessions); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "sessions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("live sessions diverge from the cut-replay of the log:\nlive %d bytes, replay %d bytes (%d cuts, %d malformed lines)\nchild output:\n%s",
			len(got), want.Len(), len(cuts), malformed, child.output())
	}
	t.Logf("byte-identical with expiry on: %d sessions, %d bytes, %d cuts replayed (replay: %s)",
		len(sessions), len(got), len(cuts), rep)
}

// TestTornCutJournalRecovery: a crash mid-append leaves a torn final line in
// the cut journal. Recovery must cut it off before journaling again —
// otherwise the next cut glues onto the fragment, and the journal either
// misplaces that cut (a fragment that still parses as three numbers) or
// fails to load at the next recovery. Crash after a cut, tear the journal,
// restart and take another cut, crash and recover again, then pin the
// journal's shape and live ≡ offline.
func TestTornCutJournalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess soak")
	}
	const gap = 300 * time.Millisecond
	dir := t.TempDir()
	g, reqs := soakCorpus(t, dir, 60, 13)
	addr := freeAddr(t)
	env := []string{"SERVE_SOAK_GAP=" + gap.String(), "SERVE_SOAK_EXPIRE=60ms"}
	journal := filepath.Join(dir, "sessions.txt.cuts")
	readJournal := func() []core.ExpiryCut {
		t.Helper()
		f, err := os.Open(journal)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cuts, err := core.ReadCuts(f)
		if err != nil {
			t.Fatal(err)
		}
		return cuts
	}
	// serveUntilCut replays part of the schedule unpaced, waits for the
	// users to go quiet and the expiry sweep to journal more than have cuts,
	// then SIGKILLs the child.
	serveUntilCut := func(child *soakProc, part []simulator.Request, have int) {
		t.Helper()
		if _, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  "http://" + addr,
			Requests: part,
			Workers:  4,
			Timeout:  2 * time.Second,
			Registry: metrics.NewRegistry(),
		}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for len(readJournal()) <= have {
			if time.Now().After(deadline) {
				t.Fatalf("no cut journaled past %d; output:\n%s", have, child.output())
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err := child.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		child.cmd.Wait()
	}
	restart := func() *soakProc {
		t.Helper()
		child := startServe(t, dir, addr, env...)
		if !strings.Contains(child.output(), "recovered from") {
			t.Fatalf("restarted child did not run checkpoint recovery; output:\n%s", child.output())
		}
		return child
	}

	half := len(reqs) / 2
	serveUntilCut(startServe(t, dir, addr, env...), reqs[:half], 0)
	before := readJournal()
	// The tear: the next cut's line cut off inside its timestamp, the shape
	// that still parses as three numbers when something is glued after it.
	last := before[len(before)-1]
	line := fmt.Sprintf("cut %d %d %d", last.Seq+1, last.Records+1, last.At.UnixNano())
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line[:len(line)-4]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	serveUntilCut(restart(), reqs[half:], len(before))
	child := restart()
	time.Sleep(3 * gap)
	sigtermAndWait(t, child)

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cuts := readJournal()
	if n := bytes.Count(raw, []byte("\n")); n != len(cuts) || !bytes.HasSuffix(raw, []byte("\n")) {
		t.Fatalf("journal holds %d lines for %d cuts (torn fragment kept?):\n%s", n, len(cuts), raw)
	}
	if cuts[len(before)].Seq != last.Seq+1 {
		t.Fatalf("first cut after the tear has seq %d, want %d", cuts[len(before)].Seq, last.Seq+1)
	}

	st, err := core.NewShardedTail(core.Config{Graph: g}, gap, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []session.Session
	if _, err := core.Run(st, core.Input{Paths: []string{filepath.Join(dir, "access.log")}}, core.RunOptions{
		Sink: func(s []session.Session) { sessions = append(sessions, s...) },
		Cuts: cuts,
	}); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := session.WriteAll(&want, append(sessions, st.Flush()...)); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "sessions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("live sessions diverge from the cut-replay of the log after a torn journal:\nlive %d bytes, replay %d bytes (%d cuts)\nchild output:\n%s",
			len(got), want.Len(), len(cuts), child.output())
	}
}

// TestDropReconciliationConservation is the drop-count accounting pin: a
// serve child with a deliberately tiny ingest queue sheds records into the
// drop ledger under unpaced load, the idle reconciler backfills them from
// the access log, and once serve.drops.pending reaches zero the conservation
// identity holds exactly: every logged request was enqueued
// (serve.requests == serve.ingest.enqueued, nothing lost).
func TestDropReconciliationConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess soak")
	}
	dir := t.TempDir()
	_, reqs := soakCorpus(t, dir, 150, 13)
	addr := freeAddr(t)
	child := startServe(t, dir, addr,
		"SERVE_SOAK_SHED_MODE="+shedDropCount,
		"SERVE_SOAK_QUEUE=1", // every concurrent record fights for one slot
		"SERVE_SOAK_RECONCILE=50ms",
	)

	// Unpaced flood: speedup 0 issues requests as fast as 16 workers can,
	// so reserve failures (drops) are certain against a one-slot queue.
	rep, _ := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:  "http://" + addr,
		Requests: reqs,
		Speedup:  0,
		Workers:  16,
		Timeout:  5 * time.Second,
		Registry: metrics.NewRegistry(),
	})
	if rep.Accepted == 0 {
		t.Fatalf("no request was ever accepted; output:\n%s", child.output())
	}

	// Idle period: poll the child's own metrics until the reconciler has
	// drained the ledger, then assert exact conservation.
	base := "http://" + addr
	deadline := time.Now().Add(30 * time.Second)
	var m map[string]int64
	for {
		var err error
		m, err = loadgen.ScrapeMetrics(context.Background(), base)
		if err != nil {
			t.Fatalf("scrape: %v\noutput:\n%s", err, child.output())
		}
		if m["serve.drops.pending"] == 0 && m["serve.requests"] == m["serve.ingest.enqueued"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reconciliation never converged: requests=%d enqueued=%d pending=%d recorded=%d reconciled=%d lost=%d\noutput:\n%s",
				m["serve.requests"], m["serve.ingest.enqueued"], m["serve.drops.pending"],
				m["serve.drops.recorded"], m["serve.drops.reconciled"], m["serve.drops.lost"], child.output())
		}
		time.Sleep(100 * time.Millisecond)
	}
	if m["serve.drops.recorded"] == 0 {
		t.Fatalf("no record was ever dropped — the test exercised nothing (requests=%d)", m["serve.requests"])
	}
	if m["serve.drops.lost"] != 0 {
		t.Fatalf("%d dropped records counted lost without a rotation", m["serve.drops.lost"])
	}
	if m["serve.drops.reconciled"] != m["serve.drops.recorded"] {
		t.Fatalf("reconciled %d of %d recorded drops with pending at 0",
			m["serve.drops.reconciled"], m["serve.drops.recorded"])
	}
	t.Logf("conservation exact: requests=%d == enqueued=%d after reconciling %d drops (replay: %s)",
		m["serve.requests"], m["serve.ingest.enqueued"], m["serve.drops.recorded"], rep)

	sigtermAndWait(t, child)
}
