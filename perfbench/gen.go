package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// simSpec fixes the simulated population behind one workload's input. The
// workload seed picks the topology (seed) and the agents (seed+1), the same
// split cmd/simgen uses; everything else is fixed per workload.
type simSpec struct {
	Agents        int
	Window        time.Duration
	ProxyFraction float64
	ProxySize     int
}

func (s simSpec) String() string {
	return fmt.Sprintf("agents=%d window=%v proxy=%.2fx%d", s.Agents, s.Window, s.ProxyFraction, s.ProxySize)
}

// simStart is the simulator's time origin when Params.Start is zero.
var simStart = time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)

// simulate generates the paper topology and runs the Table 5 agents
// (STP/LPP/NIP 0.05/0.30/0.30) over it.
func simulate(spec simSpec, seed int64) (*webgraph.Graph, *simulator.Result, error) {
	g, err := webgraph.GenerateTopology(webgraph.PaperTopology(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	p := simulator.PaperParams()
	p.Agents = spec.Agents
	p.Seed = seed + 1
	p.StartWindow = spec.Window
	p.ProxyFraction = spec.ProxyFraction
	p.ProxySize = spec.ProxySize
	res, err := simulator.Run(g, p)
	if err != nil {
		return nil, nil, err
	}
	return g, res, nil
}

// logInput is a generated topology plus access log on disk.
type logInput struct {
	Topology string `json:"-"`
	Log      string `json:"-"`
	Spec     string `json:"spec"`
	Records  int    `json:"records"`
	// Aliased counts records whose client address is a shared proxy
	// address, i.e. requests of several agents merged under one identity.
	Aliased int   `json:"aliased"`
	Bytes   int64 `json:"bytes"`
}

// proxyPrefix is the address block simulator.ProxyID draws from; agent
// addresses stay below it for any agent count this benchmark uses.
var proxyPrefix = strings.TrimSuffix(simulator.ProxyID(0), "0.0")

// genLog writes topology.json and access.log for spec and seed into dir,
// reusing an earlier generation for the same spec and seed. Generation is
// deterministic, so a reused input is byte-identical to a fresh one.
func genLog(dir string, spec simSpec, seed int64) (*logInput, error) {
	in := &logInput{
		Topology: filepath.Join(dir, "topology.json"),
		Log:      filepath.Join(dir, "access.log"),
	}
	metaPath := filepath.Join(dir, "meta.json")
	want := fmt.Sprintf("%s seed=%d", spec, seed)
	if b, err := os.ReadFile(metaPath); err == nil {
		var old logInput
		if json.Unmarshal(b, &old) == nil && old.Spec == want {
			old.Topology, old.Log = in.Topology, in.Log
			return &old, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g, res, err := simulate(spec, seed)
	if err != nil {
		return nil, err
	}
	records := res.Log(g)
	in.Spec = want
	in.Records = len(records)
	for _, r := range records {
		if strings.HasPrefix(r.Host, proxyPrefix) {
			in.Aliased++
		}
	}
	if err := writeFile(in.Topology, func(w *bufio.Writer) error { return g.Encode(w) }); err != nil {
		return nil, err
	}
	if err := writeFile(in.Log, func(w *bufio.Writer) error { return clf.WriteAll(w, records) }); err != nil {
		return nil, err
	}
	fi, err := os.Stat(in.Log)
	if err != nil {
		return nil, err
	}
	in.Bytes = fi.Size()
	b, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	return in, os.WriteFile(metaPath, b, 0o644)
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// pruneInputs removes the generated inputs of other seeds under dir, so a
// checkout that runs many seeds keeps one seed's inputs per workload.
func pruneInputs(dir string, keep map[string]bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, d := range entries {
		if d.IsDir() && strings.HasPrefix(d.Name(), "seed") && !keep[d.Name()] {
			if err := os.RemoveAll(filepath.Join(dir, d.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
