package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// ingestWorkload is a set of logs sessionized by `sessionize -stream`.
type ingestWorkload struct {
	name string
	spec simSpec
	// logs is how many independently seeded logs make up the set. The
	// proxy workload's cost per log is heavy-tailed in the seed (a few
	// interleavings explode Phase 2), so one run sums several logs, each
	// small enough that the planner keeps it sequential.
	logs int
}

var (
	// ingestPaper is a Table 5 log at 40,000 agents over a 24 h start
	// window: ~745 k records, ~57 MiB, ~12 entries in the median burst.
	ingestPaper = ingestWorkload{name: "ingest-paper", spec: simSpec{Agents: 40000, Window: 24 * time.Hour}, logs: 1}
	// ingestProxy puts half the agents behind shared proxy addresses in a
	// 6 h start window: an aliased identity rarely goes quiet for ρ, so it
	// holds bursts of hundreds of entries until Flush. The cost of a burst
	// grows steeply with how many agents interleave in it, and so does its
	// spread over seeds: at 64 agents per proxy one log can take 7× another,
	// at 28 and 32 about one log in 20 takes 2–5× the rest, at 24 none of
	// 48 did. Each log stays under the planner's 4 MiB parallel floor.
	// Seeds still differ in cost: over ten seeds the medians of passes over
	// 24 logs of 2,000 agents spread 8% of their median, so a pass sums 48
	// logs of 1,000 agents, the same records in more independent pieces.
	ingestProxy = ingestWorkload{
		name: "ingest-proxy",
		spec: simSpec{Agents: 1000, Window: 6 * time.Hour, ProxyFraction: 0.5, ProxySize: 24},
		logs: 48,
	}
)

func runIngestPaper(e *env) error { return runIngest(e, ingestPaper) }
func runIngestProxy(e *env) error { return runIngest(e, ingestProxy) }

// ingestPin is the pinned outcome of sessionizing one log.
type ingestPin struct {
	SHA256 string `json:"sha256"`
	Stats  string `json:"stats"`
}

// logSeed derives the seed of log i of a workload's set.
func logSeed(seed int64, i, n int) int64 {
	if n == 1 {
		return seed
	}
	return seed*1000 + int64(i)
}

func (w ingestWorkload) inputs(e *env) ([]*logInput, error) {
	ins := make([]*logInput, w.logs)
	keep := map[string]bool{}
	for i := range ins {
		keep[fmt.Sprintf("seed%d", logSeed(e.seed, i, w.logs))] = true
	}
	if err := pruneInputs(e.work, keep); err != nil {
		return nil, err
	}
	for i := range ins {
		s := logSeed(e.seed, i, w.logs)
		in, err := genLog(filepath.Join(e.work, fmt.Sprintf("seed%d", s)), w.spec, s)
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

var statsLine = regexp.MustCompile(`(?m)^pipeline:\s+(records=.*) \(streaming\)$`)

// planMark is the stderr line sessionize prints once its set-up is done:
// topology decoded, log paths resolved, plan resolved (with the
// calibration probe on the real input). Only sessionizer construction
// follows before the first record.
const planMark = "sessionize: plan:"

// ingestSetups is how many extra sessionize launches, each killed at its
// plan line, add set-up samples to those of the measured runs.
const ingestSetups = 11

func runIngest(e *env, w ingestWorkload) error {
	ins, err := w.inputs(e)
	if err != nil {
		return err
	}
	var records, aliased int
	var bytes int64
	for _, in := range ins {
		records += in.Records
		aliased += in.Aliased
		bytes += in.Bytes
	}
	fmt.Printf("input logs=%d records=%d bytes=%d aliased=%d\n", len(ins), records, bytes, aliased)
	e.reportLayer("workload.aliased_share", float64(aliased)/float64(records), "ratio")

	want, err := ingestReference(e, w, ins)
	if err != nil {
		return err
	}
	releaseMemory()

	// One unmeasured run warms the page cache for the binary; the logs are
	// cached already, having just been generated or checked. Then passes
	// over the whole set repeat until the time is up.
	if _, err := ingestPass(e, ins[:1], want[:1], false, nil); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < ingestSetups; i++ {
		in := ins[i%len(ins)]
		d, err := timeToMark(planMark, e.program("sessionize"),
			sessionizeArgs(in, filepath.Join(filepath.Dir(in.Log), "sessions.setup"))...)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	minPasses := 3
	if e.trace {
		minPasses = 1
	}
	var walls, cpus, rss []float64
	parallel := 0
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(walls) < minPasses || (!e.trace && time.Now().Before(deadline)) {
		p, err := ingestPass(e, ins, want, true, nil)
		if err != nil {
			return err
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rss = append(rss, p.rssMiB)
		setups = append(setups, p.setups...)
		parallel += p.parallel
	}
	wall := median(walls)
	e.reportE2E("setup_s", median(setups), "s")
	e.reportE2E("latency_ms", wall*1e3, "ms")
	e.reportE2E("cpu_s_per_mitem", median(cpus)/float64(records)*1e6, "s")
	e.reportE2E("peak_rss_mib", median(rss), "MiB")
	e.reportLayer("ingest_recs_per_s", float64(records)/wall, "rec/s")
	e.reportLayer("ingest_cpu_s_per_mrec", median(cpus)/float64(records)*1e6, "s")
	e.reportLayer("plan.parallel_runs", float64(parallel), "count")
	fmt.Printf("measure passes=%d wall_s min=%.4f median=%.4f max=%.4f setups=%d\n",
		len(walls), quantile(walls, 0), wall, maxOf(walls), len(setups))

	if e.trace {
		if traceIngest == nil {
			return errNoTrace
		}
		return traceIngest(e, w, ins, want, float64(records)/wall)
	}
	return nil
}

// sessionizeArgs is the measured command line: streaming, Smart-SRA, auto
// plan, sessions written to out.
func sessionizeArgs(in *logInput, out string, extra ...string) []string {
	return append([]string{"-topology", in.Topology, "-log", in.Log, "-stream", "-heuristic", "heur4", "-sessions", out}, extra...)
}

// passResult is one sessionize run over every log of the set.
type passResult struct {
	wall, cpu time.Duration
	rssMiB    float64
	setups    []float64 // each run's launch until its plan line
	parallel  int
}

// ingestPass runs sessionize once per log, checks each output against the
// expected digest and stats, and sums the measurements.
func ingestPass(e *env, ins []*logInput, want []ingestPin, count bool, extraEnv []string) (*passResult, error) {
	var p passResult
	for i, in := range ins {
		out := filepath.Join(filepath.Dir(in.Log), "sessions.txt")
		r, err := runProgram(170*time.Second, extraEnv, planMark, e.program("sessionize"), sessionizeArgs(in, out)...)
		if count {
			e.op(err != nil)
		}
		if err != nil {
			return nil, err
		}
		p.wall += r.wall
		p.cpu += r.cpu
		p.rssMiB = max(p.rssMiB, r.rssMiB)
		p.setups = append(p.setups, r.ready.Seconds())
		pl := planOf(r.stderr)
		if count && extraEnv == nil {
			e.plans = append(e.plans, pl)
			if strings.HasPrefix(pl, "parallel") {
				p.parallel++
			}
		}
		if err := checkIngestOutput(out, r.stderr, want[i]); err != nil {
			e.gate(false, "sessionize %s: %v", filepath.Base(filepath.Dir(in.Log)), err)
		}
	}
	return &p, nil
}

// ingestStats is the Stats() line sessionize printed, without its prefix.
func ingestStats(stderr string) string {
	if m := statsLine.FindStringSubmatch(stderr); m != nil {
		return m[1]
	}
	return ""
}

// checkIngestOutput is the ingest gate: the sessions file's SHA-256 and the
// Stats() counts sessionize printed must equal the expected ones.
func checkIngestOutput(out, stderr string, want ingestPin) error {
	got, err := fileSHA256(out)
	if err != nil {
		return err
	}
	stats := ingestStats(stderr)
	if got != want.SHA256 || stats != want.Stats {
		return fmt.Errorf("sessions sha256 %.16s stats %q, want %.16s %q", got, stats, want.SHA256, want.Stats)
	}
	return nil
}

// ingestReference is what every sessionize run must produce: the values
// pinned for this seed or, for a seed without pins, the output of one
// sessionize run with the plan forced sequential (one parse worker, one
// shard), which every auto-planned run must then reproduce.
func ingestReference(e *env, w ingestWorkload, ins []*logInput) ([]ingestPin, error) {
	if raw, ok := e.pins[pinKey(w.name, e.seed)]; ok {
		var pinned []ingestPin
		if err := json.Unmarshal(raw, &pinned); err != nil {
			return nil, fmt.Errorf("pins for %s: %w", pinKey(w.name, e.seed), err)
		}
		e.gate(len(pinned) == len(ins), "%s seed %d: %d logs pinned", w.name, e.seed, len(pinned))
		if len(pinned) == len(ins) {
			fmt.Printf("reference pinned for seed %d\n", e.seed)
			return pinned, nil
		}
	}
	fmt.Printf("reference for seed %d (not pinned): sessionize with a sequential plan\n", e.seed)
	ref := make([]ingestPin, len(ins))
	for i, in := range ins {
		out := filepath.Join(filepath.Dir(in.Log), "sessions.ref")
		r, err := runProgram(170*time.Second, nil, "", e.program("sessionize"),
			sessionizeArgs(in, out, "-workers", "0", "-shards", "1")...)
		if err != nil {
			return nil, err
		}
		sum, err := fileSHA256(out)
		if err != nil {
			return nil, err
		}
		ref[i] = ingestPin{SHA256: sum, Stats: ingestStats(r.stderr)}
		e.gate(ref[i].Stats != "", "sequential sessionize of log %d printed its Stats() line", i)
	}
	return ref, nil
}

func pinKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
