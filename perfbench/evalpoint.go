package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"
)

// The paper's own experiment: Table 5 defaults at 10,000 agents, replicated
// over five simulation seeds starting at the workload seed (the topology
// seed is the evaluator's fixed one).
const (
	evalAgents   = 10000
	evalReplicas = 5
	// evalSetups is how many one-agent evaluate runs measure set-up time.
	evalSetups = 21
)

// evalPin is the pinned stdout of one evaluate run.
type evalPin struct {
	SHA256 string `json:"sha256"`
	Table  string `json:"table"`
}

func evalArgs(seed int64, agents, replicas int, extra ...string) []string {
	return append([]string{"-experiment", "defaults", "-agents", strconv.Itoa(agents),
		"-replicas", strconv.Itoa(replicas), "-seed", strconv.FormatInt(seed, 10)}, extra...)
}

func runEvalPoint(e *env) error {
	want, err := evalReference(e)
	if err != nil {
		return err
	}
	releaseMemory()

	// evaluate prints nothing before its first point, so its set-up is
	// measured as a whole run at one agent and one replica: launch, topology
	// generation, a one-agent simulation, scoring and the table, each a
	// fixed cost every evaluate run pays.
	var setups []float64
	for i := 0; i < evalSetups; i++ {
		r, err := runProgram(60*time.Second, nil, "", e.program("evaluate"), evalArgs(e.seed, 1, 1)...)
		if err != nil {
			return err
		}
		setups = append(setups, r.wall.Seconds())
	}
	e.reportE2E("setup_s", median(setups), "s")

	minRuns := 3
	if e.trace {
		minRuns = 1
	}
	var walls, cpus, rss []float64
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	for len(walls) < minRuns || (!e.trace && time.Now().Before(deadline)) {
		r, err := runProgram(170*time.Second, nil, "", e.program("evaluate"), evalArgs(e.seed, evalAgents, evalReplicas)...)
		e.op(err != nil)
		if err != nil {
			return err
		}
		if err := checkEvalOutput(r.stdout, want); err != nil {
			e.gate(false, "%v", err)
		}
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
		rss = append(rss, r.rssMiB)
	}
	wall := median(walls)
	fmt.Printf("measure runs=%d wall_s min=%.4f median=%.4f max=%.4f\n", len(walls), quantile(walls, 0), wall, maxOf(walls))
	e.reportE2E("latency_ms", wall*1e3, "ms")
	// Items are simulated agents: evalAgents in each of evalReplicas runs.
	e.reportE2E("cpu_s_per_mitem", median(cpus)/(evalAgents*evalReplicas)*1e6, "s")
	e.reportE2E("peak_rss_mib", median(rss), "MiB")
	e.reportLayer("eval_wall_s", wall, "s")
	if e.trace {
		if traceEval == nil {
			return errNoTrace
		}
		return traceEval(e, want)
	}
	return nil
}

// checkEvalOutput is the eval-point gate: evaluate's stdout must be the
// expected accuracy table, byte for byte.
func checkEvalOutput(stdout []byte, want evalPin) error {
	if got := sha(stdout); got != want.SHA256 {
		return fmt.Errorf("evaluate stdout sha256 %.16s, want %.16s:\n%s", got, want.SHA256, stdout)
	}
	return nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// evalReference is the stdout every evaluate run must print: the bytes
// pinned for this seed or, for a seed without pins, the table of one
// evaluate run with its seeds run one at a time (-workers 1), which every
// measured run, on all cores, must then reproduce.
func evalReference(e *env) (evalPin, error) {
	var pin evalPin
	if raw, ok := e.pins[pinKey("eval-point", e.seed)]; ok {
		if err := json.Unmarshal(raw, &pin); err != nil {
			return pin, fmt.Errorf("pins for eval-point/%d: %w", e.seed, err)
		}
		e.gate(pin.SHA256 == sha([]byte(pin.Table)), "eval-point seed %d: pinned table matches its digest", e.seed)
		fmt.Printf("reference pinned for seed %d\n", e.seed)
		return pin, nil
	}
	fmt.Printf("reference for seed %d (not pinned): evaluate -workers 1\n", e.seed)
	r, err := runProgram(170*time.Second, nil, "", e.program("evaluate"), evalArgs(e.seed, evalAgents, evalReplicas, "-workers", "1")...)
	if err != nil {
		return pin, err
	}
	e.gate(bytes.HasPrefix(r.stdout, []byte("Table 5 defaults")), "sequential evaluate printed the accuracy table")
	return evalPin{SHA256: sha(r.stdout), Table: string(r.stdout)}, nil
}
