// Command pbench is the repository benchmark. It runs one workload against
// the sessionize, serve and evaluate binaries built from the checkout,
// checks their outputs, and prints every metric by name followed by one
// JSON result line. perfbench/run.py builds the binaries and invokes it:
//
//	python3 perfbench/run.py --workload ingest-paper --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured from
// outside the programs with tracing off. With -trace 1 it carries the
// per-layer metrics of a separate traced run, whose spans wrap the calls
// the benchmark makes into each layer's public functions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload runner gets: where the programs and scratch
// space are, how long to measure, and the record of the environment.
type env struct {
	bin     string // directory holding sessionize, serve and evaluate
	work    string // scratch directory for inputs and outputs
	seed    int64
	seconds float64
	trace   bool
	pins    map[string]json.RawMessage

	attempted, failed int
	gateErrs          []string
	e2e, layer        map[string]metric
	// plans records the plan line each measured program printed.
	plans []string
}

func (e *env) program(name string) string { return filepath.Join(e.bin, name) }

// report records a metric; which map it lands in decides whether -trace 0
// or -trace 1 prints it in the result line.
func (e *env) reportE2E(name string, v float64, unit string) {
	e.e2e[name] = metric{v, unit}
}

func (e *env) reportLayer(name string, v float64, unit string) {
	e.layer[name] = metric{v, unit}
}

// gate records a correctness check; a failed check fails the run.
func (e *env) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	status := "ok  "
	if !ok {
		status = "FAIL"
		e.gateErrs = append(e.gateErrs, msg)
	}
	fmt.Printf("gate %s %s\n", status, msg)
}

// op counts one attempted operation and whether it failed.
func (e *env) op(failed bool) {
	e.attempted++
	if failed {
		e.failed++
	}
}

// The traced runs and the pinning of correctness values call into the
// layers' Go packages, so they are compiled in only with the trace build
// tag (trace_*.go, pin.go); run.py builds that variant for --trace 1 only.
// The untraced, measured path runs the programs under test as they are and
// uses the Go packages only to generate its inputs.
var (
	traceIngest func(e *env, w ingestWorkload, ins []*logInput, want []ingestPin, measured float64) error
	traceEval   func(e *env, want evalPin) error
	traceServe  func(e *env, w *liveWorkload) error
	writePin    func(e *env, workload, path string) error
)

var errNoTrace = errors.New("this pbench was built without the trace tag; build it with -tags trace")

var workloads = map[string]func(*env) error{
	"ingest-paper": runIngestPaper,
	"ingest-proxy": runIngestProxy,
	"serve-live":   runServeLive,
	"eval-point":   runEvalPoint,
}

func main() {
	var (
		workload  = flag.String("workload", "", "ingest-paper, ingest-proxy, serve-live or eval-point")
		seed      = flag.Int64("seed", 1, "workload seed: all inputs derive from it")
		seconds   = flag.Float64("seconds", 10, "how long to measure")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin       = flag.String("bin", "", "directory with the sessionize, serve and evaluate binaries")
		work      = flag.String("work", "", "scratch directory")
		pinsPath  = flag.String("pins", "", "pinned correctness values (JSON)")
		specPath  = flag.String("spec", "", "BENCHMARK.json: the metric names the result line must carry")
		pin       = flag.Bool("pin", false, "compute the seed's correctness values in process and add them to -pins, instead of measuring")
		commit    = flag.String("commit", "unknown", "source revision, recorded in the environment lines")
		goVersion = flag.String("goversion", runtime.Version(), "toolchain that built the programs")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *specPath == "" {
		fmt.Fprintf(os.Stderr, "pbench: need -workload (one of %s), -bin, -work and -spec\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	e := &env{
		bin: *bin, work: filepath.Join(*work, *workload), seed: *seed, seconds: *seconds,
		trace: *trace == 1, e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if *pinsPath != "" {
		b, err := os.ReadFile(*pinsPath)
		if err == nil {
			err = json.Unmarshal(b, &e.pins)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pbench: pins:", err)
			os.Exit(1)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	if *pin {
		if writePin == nil {
			fmt.Fprintln(os.Stderr, "pbench:", errNoTrace)
			os.Exit(1)
		}
		if err := writePin(e, *workload, *pinsPath); err != nil {
			fmt.Fprintln(os.Stderr, "pbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("env commit=%s go=%q nproc=%d gomaxprocs=%d\n", *commit, *goVersion, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	start := time.Now()
	if err := run(e); err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	printPlans(e.plans)
	fmt.Printf("env wall_s=%.1f\n", time.Since(start).Seconds())

	res := result{Correct: len(e.gateErrs) == 0, Attempted: e.attempted, Failed: e.failed}
	if !res.Correct {
		res.Failed += len(e.gateErrs)
	}
	printMetrics("end-to-end", e.e2e)
	printMetrics("per-layer", e.layer)
	if e.trace {
		res.Metrics, err = sp.perLayer.fill(e.layer, true)
	} else {
		res.Metrics, err = sp.endToEnd.fill(e.e2e, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-10s %-36s %16.6f %s\n", kind, n, m[n].Value, m[n].Unit)
	}
}

// printPlans reports the split of execution plans across the measured
// program runs, e.g. "sequential+mmap=5 parallel+mmap=1".
func printPlans(plans []string) {
	if len(plans) == 0 {
		return
	}
	count := map[string]int{}
	for _, p := range plans {
		count[planMode(p)]++
	}
	var parts []string
	for m, c := range count {
		parts = append(parts, fmt.Sprintf("%s=%d", m, c))
	}
	sort.Strings(parts)
	fmt.Printf("env plans %s\n", strings.Join(parts, " "))
	fmt.Printf("env plan_line %q\n", plans[len(plans)-1])
}

// planMode is the mode word of a plan line ("sequential+mmap", "parallel").
func planMode(line string) string {
	mode, _, _ := strings.Cut(line, ":")
	return strings.TrimSpace(mode)
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricList []metricSpec

type spec struct {
	endToEnd metricList
	perLayer metricList
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw struct {
		EndToEnd metricList `json:"end_to_end"`
		PerLayer metricList `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec{endToEnd: raw.EndToEnd, perLayer: raw.PerLayer}, nil
}

// fill returns exactly the declared metrics. For the end-to-end set every
// declared metric must be measured and nothing else may be. For the
// per-layer set (perLayer), a declared metric the workload did not measure
// belongs to a layer the workload does not run and reads 0, and a measured
// one that is not declared is printed by name but left out of the result
// line. A unit that differs
// from the declaration is a bug in the benchmark.
func (l metricList) fill(measured map[string]metric, perLayer bool) (map[string]metric, error) {
	out := make(map[string]metric, len(l))
	declared := make(map[string]bool, len(l))
	for _, m := range l {
		declared[m.Name] = true
		v, ok := measured[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if !ok {
			v = metric{0, m.Unit}
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	for name := range measured {
		if !declared[name] && !perLayer {
			return nil, fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
