package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"smartsra/internal/core"
	"smartsra/internal/loadgen"
	"smartsra/internal/metrics"
	"smartsra/internal/plan"
	"smartsra/internal/session"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// TestMain doubles the test binary as the soak child: with SERVE_SOAK_CHILD
// set it IS the server under test (options from env, straight into run), so
// the soak test can SIGKILL a real serve process — goroutine-level fault
// injection cannot model losing the page cache, the socket, and every
// in-flight write at once.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_SOAK_CHILD") == "1" {
		if err := soakChild(); err != nil {
			fmt.Fprintln(os.Stderr, "soak child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func soakChild() error {
	dir := os.Getenv("SERVE_SOAK_DIR")
	o := options{
		topoPath:  filepath.Join(dir, "topology.json"),
		addr:      os.Getenv("SERVE_SOAK_ADDR"),
		logPath:   filepath.Join(dir, "access.log"),
		sessPath:  filepath.Join(dir, "sessions.txt"),
		ckptPath:  filepath.Join(dir, "state.ckpt"),
		ckptEvery: 25 * time.Millisecond,
		// Expiry defaults off here: the plain crash soak replays the log
		// without a cut journal. TestLiveOfflineEquivalenceWithExpiry turns
		// it on via SERVE_SOAK_EXPIRE and replays with the journaled cuts.
		expireEvery: 0,
		queueCap:    64,
		shedMode:    shed503,
		trustFwd:    true,
	}
	// Scenario knobs so the robustness tests reuse this one child.
	if v := os.Getenv("SERVE_SOAK_GAP"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		o.sessionGap = d
	}
	if v := os.Getenv("SERVE_SOAK_EXPIRE"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		o.expireEvery = d
	}
	if v := os.Getenv("SERVE_SOAK_SHED_MODE"); v != "" {
		o.shedMode = v
	}
	if v := os.Getenv("SERVE_SOAK_QUEUE"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		o.queueCap = n
	}
	if v := os.Getenv("SERVE_SOAK_RECONCILE"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		o.reconcileEvery = d
	}
	for name, dst := range map[string]*plan.Knob{
		"shards": &o.shards, "workers": &o.workers,
		"stream-depth": &o.depth, "batch": &o.batch,
	} {
		k, err := plan.ParseKnob(name, "auto")
		if err != nil {
			return err
		}
		*dst = k
	}
	return run(o)
}

// soakProc is one child serve process with its captured output.
type soakProc struct {
	cmd *exec.Cmd
	mu  sync.Mutex
	out bytes.Buffer
}

func (p *soakProc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startServe launches the test binary as a serve child and waits until it is
// accepting connections. extraEnv entries ("KEY=value") select scenario
// knobs in soakChild.
func startServe(t *testing.T, dir, addr string, extraEnv ...string) *soakProc {
	t.Helper()
	p := &soakProc{cmd: exec.Command(os.Args[0])}
	p.cmd.Env = append(os.Environ(),
		"SERVE_SOAK_CHILD=1", "SERVE_SOAK_DIR="+dir, "SERVE_SOAK_ADDR="+addr)
	p.cmd.Env = append(p.cmd.Env, extraEnv...)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = p.cmd.Stdout // same pipe: one ordered transcript
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	listening := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		signaled := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.out.WriteString(line)
			p.out.WriteByte('\n')
			p.mu.Unlock()
			if !signaled && strings.Contains(line, "listening on") {
				signaled = true
				close(listening)
			}
		}
	}()
	select {
	case <-listening:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		t.Fatalf("child never started listening; output:\n%s", p.output())
	}
	return p
}

// TestSoakCrashRecoveryUnderLoad is the end-to-end hardening pin: a
// fixed-seed loadgen replays simulated users against a real serve process
// with checkpointing on, the process is SIGKILLed mid-load and restarted,
// and after a final graceful shutdown the session file must be byte-
// identical to an offline sequential sessionization of the final access log
// — crash recovery plus bounded-ingest reordering lost nothing and invented
// nothing. Client-side accounting must conserve exactly:
// accepted + shed + errors == sent.
func TestSoakCrashRecoveryUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second subprocess soak")
	}
	dir := t.TempDir()

	g, err := webgraph.GenerateTopology(webgraph.TopologyConfig{
		Pages: 150, AvgOutDegree: 8, StartPageFraction: 0.08,
		Model: webgraph.ModelUniform, EnsureReachable: true,
	}, rand.New(rand.NewSource(11)))
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
	params.Agents = 150
	params.Seed = 42
	res, err := simulator.Run(g, params)
	if err != nil {
		t.Fatal(err)
	}
	reqs := res.Schedule(g)
	if len(reqs) < 500 {
		t.Fatalf("schedule too small to soak: %d requests", len(reqs))
	}

	// Pre-allocate a fixed port so the restarted child binds the same
	// address the load generator is hammering.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	child := startServe(t, dir, addr)

	// Pace the whole schedule over ~3s of wall clock so the kill lands
	// mid-load with traffic on both sides of it.
	span := reqs[len(reqs)-1].At.Sub(reqs[0].At)
	speedup := span.Seconds() / 3.0
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

	// SIGKILL mid-load: no Shutdown, no final flush, no final checkpoint —
	// the next start recovers from the periodic checkpoint and the log.
	time.Sleep(900 * time.Millisecond)
	if err := child.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	child.cmd.Wait() // reap; the error is the kill, expected
	child = startServe(t, dir, addr)
	if !strings.Contains(child.output(), "recovered from") {
		t.Fatalf("restarted child did not run checkpoint recovery; output:\n%s", child.output())
	}

	var rep loadgen.Report
	select {
	case rep = <-repc:
	case <-time.After(120 * time.Second):
		t.Fatal("load generator never finished")
	}
	if rep.Sent != int64(len(reqs)) {
		t.Fatalf("dispatched %d of %d scheduled requests", rep.Sent, len(reqs))
	}
	if rep.Accepted+rep.Shed+rep.Errors != rep.Sent {
		t.Fatalf("conservation violated: accepted %d + shed %d + errors %d != sent %d",
			rep.Accepted, rep.Shed, rep.Errors, rep.Sent)
	}
	if rep.Accepted == 0 {
		t.Fatal("no request was ever accepted")
	}
	t.Logf("soak replay: %s", rep)

	// Graceful shutdown: drain the queue, flush the tail, final checkpoint.
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

	// The pin: offline sequential sessionization of the final access log
	// must reproduce the live session file byte for byte. (A second timed
	// run cannot be the reference — wall-clock timestamps differ — but the
	// log IS the run, so replaying it is replaying the run.)
	logPath := filepath.Join(dir, "access.log")
	st, err := core.NewShardedTail(core.Config{Graph: g}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []session.Session
	malformed, err := core.Run(st, core.Input{Paths: []string{logPath}},
		core.RunOptions{Sink: func(s []session.Session) { sessions = append(sessions, s...) }})
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
		t.Fatalf("live sessions diverge from the offline replay of the log:\nlive %d bytes, replay %d bytes (log malformed lines: %d)\nchild output:\n%s",
			len(got), want.Len(), malformed, child.output())
	}
	t.Logf("byte-identical: %d sessions, %d bytes (log malformed lines after SIGKILL: %d)",
		len(sessions), len(got), malformed)
}
