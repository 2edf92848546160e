package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smartsra/internal/webgraph"
)

// The live workload replays a slice of a simulated population's request
// schedule against cmd/serve over loopback, unpaced: serveSenders
// keep-alive connections each send their users' requests back to back, in
// schedule order, as fast as serve answers. Every request goes through
// serve's whole request path (admission, site, access-log append, ingest
// queue, drainer, live sessionizer), and the replay's wall time for a fixed
// request count is the workload's latency. An unpaced replay compresses
// the slice several hundred times, so ρ shrinks to 1 s and quiet users
// expire within the run; the log's one-second timestamps then put most of
// a user's consecutive requests in one second, so the sessions are short,
// but live and offline sessionizing see the same log and must agree.
const (
	serveRho         = time.Second
	serveExpireEvery = 250 * time.Millisecond
	serveSenders     = 2
	// serveSkip starts the replayed slice once the start window has filled
	// with users in the middle of their sessions.
	serveSkip = time.Hour
	// serveRequests is the replayed slice: about 25 simulated minutes, a
	// second or two of replay.
	serveRequests = 60000
	// serveSetups is how many extra launches measure set-up time, besides
	// those of the measured replays.
	serveSetups = 10
)

// serveSpec is 20,000 agents arriving over 2 simulated hours.
var serveSpec = simSpec{Agents: 20000, Window: 2 * time.Hour}

// serveArgs is the serve command line: live sessionizing with a checkpoint,
// periodic expiry and 503 shedding (which keeps the access log equal to the
// live tail's input), admission control in front.
func serveArgs(topo, dir string) []string {
	return []string{
		"-topology", topo, "-addr", "127.0.0.1:0",
		"-log", filepath.Join(dir, "access.log"),
		"-sessions", filepath.Join(dir, "sessions.txt"),
		"-checkpoint", filepath.Join(dir, "state.ckpt"),
		"-trust-forwarded", "-shed-mode", "503", "-max-inflight", "256",
		"-expire-every", serveExpireEvery.String(), "-session-gap", serveRho.String(),
	}
}

// serveProc is a running serve.
type serveProc struct {
	cmd    *exec.Cmd
	base   string
	ready  time.Duration // launch until the listening line
	stderr bytes.Buffer
	out    sync.WaitGroup
}

// startServe launches serve on fresh files and waits for its listening line.
func startServe(e *env, topo, dir string) (*serveProc, error) {
	for _, f := range []string{"access.log", "sessions.txt", "sessions.txt.cuts", "sessions.txt.deadletter", "state.ckpt"} {
		if err := os.Remove(filepath.Join(dir, f)); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	p := &serveProc{cmd: exec.Command(e.program("serve"), serveArgs(topo, dir)...)}
	p.cmd.Stderr = &p.stderr
	p.cmd.SysProcAttr = childAttr()
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	launched := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	p.out.Add(1)
	go func() {
		defer p.out.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "serve: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		p.ready = time.Since(launched)
		p.base = "http://" + a
		// serve installs its shutdown handler after printing the listening
		// line; a first answered request means it is in place.
		if _, err := scrape(p.base); err != nil {
			p.kill()
			return nil, err
		}
		return p, nil
	case <-time.After(20 * time.Second):
		p.kill()
		return nil, fmt.Errorf("serve did not start: %s", tail(p.stderr.String(), 400))
	}
}

// kill ends a serve that has not been stopped yet and waits for it; on a
// stopped one it does nothing.
func (p *serveProc) kill() {
	if p.cmd.ProcessState == nil {
		p.cmd.Process.Kill()
		p.out.Wait()
		p.cmd.Wait()
	}
}

// stop shuts serve down gracefully (it drains its ingest queue and flushes
// every open burst) and returns its resource usage.
func (p *serveProc) stop() (*procRun, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { p.out.Wait(); done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill()
		err = fmt.Errorf("serve did not stop within 30s")
		<-done
	}
	if err != nil {
		return nil, fmt.Errorf("serve: %w: %s", err, tail(p.stderr.String(), 400))
	}
	r := &procRun{stderr: p.stderr.String()}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMiB = float64(ru.Maxrss) / 1024
	}
	return r, nil
}

// scrape reads serve's /debug/metrics. Counters and gauges map to their
// value; a histogram adds name.count, name.p50 and name.p99.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/debug/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseMetricsText(resp.Body)
}

func parseMetricsText(r io.Reader) (map[string]float64, error) {
	m := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				m[f[1]] = v
			}
		case "histo":
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if x, err := strconv.ParseFloat(v, 64); ok && err == nil {
					m[f[1]+"."+k] = x
				}
			}
		}
	}
	return m, sc.Err()
}

// liveWorkload is the generated input of one serve-live run.
type liveWorkload struct {
	g    *webgraph.Graph
	topo string
	reqs []liveReq
	// interval is the measured replays' median time per request, the
	// cadence of the traced in-process replay.
	interval time.Duration
}

// prepareLive writes the topology and takes the replayed slice of the
// schedule: the first serveRequests requests from serveSkip on.
func prepareLive(e *env) (*liveWorkload, error) {
	name := fmt.Sprintf("seed%d", e.seed)
	if err := pruneInputs(e.work, map[string]bool{name: true}); err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, res, err := simulate(serveSpec, e.seed)
	if err != nil {
		return nil, err
	}
	w := &liveWorkload{g: g, topo: filepath.Join(dir, "topology.json")}
	if err := writeFile(w.topo, func(b *bufio.Writer) error { return g.Encode(b) }); err != nil {
		return nil, err
	}
	from := simStart.Add(serveSkip)
	for _, r := range res.Schedule(g) {
		if r.At.Before(from) {
			continue
		}
		if len(w.reqs) == serveRequests {
			break
		}
		w.reqs = append(w.reqs, liveReq{user: r.User, uri: r.URI, referer: r.Referer})
	}
	if len(w.reqs) < serveRequests {
		return nil, fmt.Errorf("schedule has %d requests after %v, want %d", len(w.reqs), serveSkip, serveRequests)
	}
	return w, nil
}

// liveRun is the outcome of replaying the workload against one serve.
type liveRun struct {
	samples []sample
	outcome outcome
	wall    time.Duration // first send until the last answer
	// replayCPU is serve's CPU time while the replay ran, without start-up
	// and shutdown.
	replayCPU time.Duration
	ready     time.Duration
	proc      *procRun
	server    map[string]float64 // final scrape
	maxQueue  float64
	lags      []time.Duration
	missing   int
}

func runServeLive(e *env) error {
	w, err := prepareLive(e)
	if err != nil {
		return err
	}
	releaseMemory()
	dir := filepath.Dir(w.topo)
	users := map[string]bool{}
	for _, r := range w.reqs {
		users[r.user] = true
	}
	fmt.Printf("input requests=%d users=%d senders=%d rho=%v expire_every=%v\n",
		len(w.reqs), len(users), serveSenders, serveRho, serveExpireEvery)

	var setups []float64
	for i := 0; i < serveSetups; i++ {
		p, err := startServe(e, w.topo, dir)
		if err != nil {
			return err
		}
		setups = append(setups, p.ready.Seconds())
		_, err = p.stop()
		p.kill()
		if err != nil {
			return err
		}
	}
	// One unmeasured replay warms serve's binary, the loopback path and the
	// topology file in the page cache.
	if _, err := replayLive(e, w, dir, false, false); err != nil {
		return err
	}

	minRuns := 3
	if e.trace {
		minRuns = 1
	}
	var walls, cpus, rss []float64
	var last *liveRun
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(walls) < minRuns || (!e.trace && time.Now().Before(deadline)) {
		run, err := replayLive(e, w, dir, true, e.trace)
		if err != nil {
			return err
		}
		walls = append(walls, run.wall.Seconds())
		cpus = append(cpus, run.replayCPU.Seconds())
		rss = append(rss, run.proc.rssMiB)
		setups = append(setups, run.ready.Seconds())
		last = run
	}
	wall := median(walls)
	n := float64(len(w.reqs))
	fmt.Printf("measure replays=%d wall_s min=%.4f median=%.4f max=%.4f setups=%d\n",
		len(walls), quantile(walls, 0), wall, maxOf(walls), len(setups))
	e.reportE2E("setup_s", median(setups), "s")
	e.reportE2E("latency_ms", wall*1e3, "ms")
	e.reportE2E("cpu_s_per_mitem", median(cpus)/n*1e6, "s")
	e.reportE2E("peak_rss_mib", median(rss), "MiB")
	e.reportLayer("serve_max_rps", n/wall, "req/s")
	reportLive(e, last)
	if e.trace {
		if traceServe == nil {
			return errNoTrace
		}
		w.interval = time.Duration(wall / n * float64(time.Second))
		return traceServe(e, w)
	}
	return nil
}

// reportLive records the last replay's client and server numbers, with the
// sample count behind every percentile.
func reportLive(e *env, run *liveRun) {
	o := run.outcome
	lat := make([]float64, len(run.samples))
	for i, s := range run.samples {
		lat[i] = s.latency.Seconds() * 1e3
	}
	e.reportLayer("serve_p50_ms", median(lat), "ms")
	latP99, latOK := tailQuantile(lat, 0.99)
	if latOK {
		e.reportLayer("serve_p99_ms", latP99, "ms")
	}
	e.reportLayer("serve_fail_ratio", float64(o.sent-o.accepted)/float64(o.sent), "ratio")
	fmt.Printf("samples latency n=%d (p99 reported: %v)\n", len(lat), latOK)
	fmt.Printf("client sent=%d accepted=%d shed=%d rejected=%d errors=%d\n", o.sent, o.accepted, o.shed, o.rejected, o.errors)
	s := run.server
	e.reportLayer("serve.request.p50_ms", s["serve.request.seconds.p50"]*1e3, "ms")
	e.reportLayer("serve.request.p99_ms", s["serve.request.seconds.p99"]*1e3, "ms")
	e.reportLayer("serve.ingest.reserve_failures", s["serve.ingest.reserve_failures"], "count")
	e.reportLayer("serve.shed", s["serve.shed"], "count")
	e.reportLayer("core.tail.reconstruct.p99_ms", s[`core.tail.reconstruct.seconds{heur="heur4"}.p99`]*1e3, "ms")
	if !e.trace {
		return
	}
	e.reportLayer("serve.ingest.queue_depth.max", run.maxQueue, "count")
	lags := make([]float64, len(run.lags))
	for i, l := range run.lags {
		lags[i] = l.Seconds()
	}
	e.reportLayer("emit_lag_p50_s", median(lags), "s")
	lagP99, lagOK := tailQuantile(lags, 0.99)
	if lagOK {
		e.reportLayer("emit_lag_p99_s", lagP99, "s")
	}
	fmt.Printf("samples lag users=%d missing=%d (p99 reported: %v)\n", len(lags), run.missing, lagOK)
}

// replayLive starts serve, replays the workload, stops serve and checks
// client and server conservation and that an offline replay of serve's
// access log reproduces its live sessions byte for byte. With count the
// requests are the run's operations. With observe it also polls serve's
// queue depth and the sessions file during the replay, waits for the
// expiry loop to emit every session, and computes each user's emission lag.
func replayLive(e *env, w *liveWorkload, dir string, count, observe bool) (*liveRun, error) {
	p, err := startServe(e, w.topo, dir)
	if err != nil {
		return nil, err
	}
	defer p.kill()
	run := &liveRun{ready: p.ready}

	var ft *fileTail
	stopScrape := make(chan struct{})
	var scraped sync.WaitGroup
	stopObserving := sync.OnceFunc(func() {
		close(stopScrape)
		scraped.Wait()
	})
	defer stopObserving()
	if observe {
		ft = startFileTail(filepath.Join(dir, "sessions.txt"), 5*time.Millisecond)
		defer ft.close()
		// Scraping goes around admission and the shed gate, so it does not
		// perturb the accounting.
		scraped.Add(1)
		go func() {
			defer scraped.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				if m, err := scrape(p.base); err == nil {
					run.maxQueue = max(run.maxQueue, m["serve.ingest.pending"])
				}
				select {
				case <-stopScrape:
					return
				case <-tick.C:
				}
			}
		}()
	}

	cpu0, err := processCPU(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	run.samples = closedLoop(strings.TrimPrefix(p.base, "http://"), w.reqs, serveSenders)
	run.wall = time.Since(start)
	cpu1, err := processCPU(p.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	run.replayCPU = cpu1 - cpu0
	run.outcome = classify(run.samples)
	if count {
		for _, s := range run.samples {
			e.op(s.status != http.StatusOK && s.status != http.StatusFound)
		}
	}

	var final map[string]float64
	if observe {
		// Every user goes quiet when the replay ends; wait for the expiry
		// loop to emit them all.
		deadline := time.Now().Add(serveRho + 10*time.Second)
		for time.Now().Before(deadline) {
			m, err := scrape(p.base)
			if err == nil && m["core.tail.buffered.entries"] == 0 && m["serve.ingest.pending"] == 0 {
				final = m
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		stopObserving()
		e.gate(final != nil, "serve emitted every buffered session within ρ+10s")
	}
	if final == nil {
		if final, err = scrape(p.base); err != nil {
			return nil, err
		}
	}
	run.server = final
	if run.proc, err = p.stop(); err != nil {
		return nil, err
	}
	if count {
		if pl := planOf(run.proc.stderr); pl != "" {
			e.plans = append(e.plans, pl)
		}
	}
	if observe {
		lines := ft.close()
		lf, err := os.Open(filepath.Join(dir, "access.log"))
		if err != nil {
			return nil, err
		}
		run.lags, run.missing, err = emissionLags(lines, lf, serveRho)
		lf.Close()
		if err != nil {
			return nil, err
		}
	}

	o := run.outcome
	e.gate(o.accepted+o.shed+o.rejected+o.errors == o.sent,
		"client conservation: accepted %d + shed %d + rejected %d + errors %d == sent %d", o.accepted, o.shed, o.rejected, o.errors, o.sent)
	req, enq := final["serve.requests"], final["serve.ingest.enqueued"]
	e.gate(req == enq && int(req) == o.accepted,
		"server conservation: serve.requests %.0f == serve.ingest.enqueued %.0f == accepted %d", req, enq, o.accepted)
	if err := checkOfflineReplay(e, w.topo, dir); err != nil {
		return nil, err
	}
	return run, nil
}

// checkOfflineReplay replays serve's access log offline with its journaled
// expiry cuts and compares the sessions with the live ones.
func checkOfflineReplay(e *env, topo, dir string) error {
	live := filepath.Join(dir, "sessions.txt")
	replay := filepath.Join(dir, "sessions.replay")
	r, err := runProgram(170*time.Second, nil, "", e.program("sessionize"),
		"-topology", topo, "-log", filepath.Join(dir, "access.log"), "-stream",
		"-cuts", live+".cuts", "-session-gap", serveRho.String(), "-sessions", replay)
	if err != nil {
		return err
	}
	same, err := sameNonEmptyFiles(live, replay)
	if err != nil {
		return err
	}
	e.gate(same, "live sessions byte-identical to the offline -cuts replay (%s)", ingestStats(r.stderr))
	return nil
}

// sameNonEmptyFiles is the serve-live gate's comparison: both files hold
// the same, non-empty bytes.
func sameNonEmptyFiles(a, b string) (bool, error) {
	x, err := os.ReadFile(a)
	if err != nil {
		return false, err
	}
	y, err := os.ReadFile(b)
	if err != nil {
		return false, err
	}
	return len(x) > 0 && bytes.Equal(x, y), nil
}
