//go:build trace

package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"smartsra/internal/eval"
	"smartsra/internal/heuristics"
	"smartsra/internal/simulator"
	"smartsra/internal/stats"
)

func init() { traceEval = traceEvalPoint }

func evalConfig(seed int64) (eval.RunConfig, []int64) {
	cfg := eval.PaperDefaults()
	cfg.Params.Agents = evalAgents
	seeds := make([]int64, evalReplicas)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return cfg, seeds
}

// computeEvalReference is the table the eval package's own replication
// prints for the seed.
func computeEvalReference(seed int64) (evalPin, error) {
	cfg, seeds := evalConfig(seed)
	rep, err := eval.ReplicateWith(cfg, seeds, eval.RunOptions{})
	if err != nil {
		return evalPin{}, err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "Table 5 defaults, %d agents\n", evalAgents)
	if err := rep.WriteTable(&b); err != nil {
		return evalPin{}, err
	}
	return evalPin{SHA256: sha(b.Bytes()), Table: b.String()}, nil
}

// evalTable is the defaults experiment rebuilt from the layers' public
// calls, one seed and one heuristic at a time: simulate, reconstruct with
// each heuristic, score. With a tracer every call is a span.
func evalTable(cfg eval.RunConfig, seeds []int64, tr *tracer) (string, int, error) {
	root := tr.begin("eval")
	id := tr.begin("webgraph.generate")
	g, err := eval.Topology(cfg)
	tr.end(id)
	if err != nil {
		return "", 0, err
	}
	matched := map[string][]float64{}
	exists := map[string][]float64{}
	real := 0
	for _, s := range seeds {
		p := cfg.Params
		p.Seed = s
		p.Workers = 1
		id := tr.begin("simulator.run")
		res, err := simulator.Run(g, p)
		tr.end(id)
		if err != nil {
			return "", 0, err
		}
		real += len(res.Real)
		for _, h := range eval.DefaultHeuristics(g) {
			id := tr.begin("heuristics." + h.Name() + ".reconstruct_all")
			cands := heuristics.ReconstructAll(h, res.Streams)
			tr.end(id)
			id = tr.begin("eval.score")
			m := eval.ScoreMatched(res.Real, cands)
			x := eval.Score(res.Real, cands)
			tr.end(id)
			matched[h.Name()] = append(matched[h.Name()], m.Percent())
			exists[h.Name()] = append(exists[h.Name()], x.Percent())
		}
	}
	tr.end(root)
	rep := &eval.ReplicateResult{Seeds: seeds, Names: eval.HeuristicNames,
		Matched: map[string]stats.Summary{}, Exists: map[string]stats.Summary{}}
	for _, h := range eval.HeuristicNames {
		rep.Matched[h] = stats.Summarize(matched[h])
		rep.Exists[h] = stats.Summarize(exists[h])
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "Table 5 defaults, %d agents\n", cfg.Params.Agents)
	if err := rep.WriteTable(&b); err != nil {
		return "", 0, err
	}
	return b.String(), real, nil
}

// traceEvalPoint runs the in-process experiment untraced and traced, checks both
// tables against the reference, and reports the per-layer times.
func traceEvalPoint(e *env, want evalPin) error {
	cfg, seeds := evalConfig(e.seed)
	t0 := time.Now()
	plain, _, err := evalTable(cfg, seeds, nil)
	if err != nil {
		return err
	}
	untraced := time.Since(t0)
	runtime.GC()
	tr := newTracer()
	t0 = time.Now()
	table, real, err := evalTable(cfg, seeds, tr)
	if err != nil {
		return err
	}
	traced := time.Since(t0)
	e.gate(plain == want.Table && table == want.Table, "traced and untraced in-process tables equal the evaluate output")
	if err := tr.write(filepath.Join(e.work, fmt.Sprintf("trace-seed%d.tsv", e.seed))); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	e.reportLayer("webgraph.generate_s", self["webgraph.generate"].Seconds(), "s")
	e.reportLayer("simulator.run_s", self["simulator.run"].Seconds(), "s")
	for _, h := range eval.HeuristicNames {
		e.reportLayer("heuristics."+h+".reconstruct_all_s", self["heuristics."+h+".reconstruct_all"].Seconds(), "s")
	}
	e.reportLayer("eval.score_s", self["eval.score"].Seconds(), "s")
	e.reportLayer("eval.real_sessions", float64(real), "count")
	e.reportLayer("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), "ratio")
	return nil
}
