package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/eval"
	"smartsra/internal/plan"
	"smartsra/internal/simulator"
)

// ingestBench is the JSON record -benchingest emits: one self-benchmark of
// the streaming ingestion layer (CLF parsing and single- and multi-shard Tail
// sessionization) over a simulated log at the configured -agents scale.
// CI runs this and uploads the file; EXPERIMENTS.md tracks the trajectory.
//
// The speedup fields compare the adaptive plan's path against the
// sequential baseline, so they are >= 1.0 by construction: when the planner
// falls back to sequential, the planned path IS the baseline path and the
// speedup is 1.0 by identity; when it goes parallel, the calibration probe
// already showed the parallel path winning on this machine.
type ingestBench struct {
	Name       string `json:"name"`
	Agents     int    `json:"agents"`
	Records    int    `json:"records"`
	Workers    int    `json:"workers"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PlanParse / PlanLive are the execution plans the planner chose for
	// the batch parse and the concurrently fed sessionizer.
	PlanParse string `json:"plan_parse"`
	PlanLive  string `json:"plan_live"`

	// Parse stage: the legacy per-line string path, the []byte fast path
	// (sequential), the chunk-parallel reader at full width, and the
	// planned path. Every variant drops records as they are parsed — the
	// same protocol as the string baseline, which counts but never retains
	// — so the fields compare parsing cost, not the GC bill of holding the
	// whole record slice alive. (An earlier revision measured the bytes
	// path through the retaining clf.ReadAll, which made it look slower
	// than the string baseline; the inversion was retention, not parsing.)
	ParseStringRecsPerSec   float64 `json:"parse_string_recs_per_sec"`
	ParseStringAllocsPerRec float64 `json:"parse_string_allocs_per_rec"`
	ParseBytesRecsPerSec    float64 `json:"parse_bytes_recs_per_sec"`
	ParseBytesAllocsPerRec  float64 `json:"parse_bytes_allocs_per_rec"`
	ParseParallelRecsPerSec float64 `json:"parse_parallel_recs_per_sec"`
	ParsePlannedRecsPerSec  float64 `json:"parse_planned_recs_per_sec"`
	ParseSpeedup            float64 `json:"parse_speedup"`

	// Source stage: the same log re-read from disk through each Source
	// kind (buffered reader, mmap, gzip) at the planned parse width.
	sourceBench

	// Sessionization stage: single-shard Tail, concurrently fed Tail with
	// one shard per core, and the planned processor.
	TailRecsPerSec        float64 `json:"tail_recs_per_sec"`
	ShardedRecsPerSec     float64 `json:"sharded_tail_recs_per_sec"`
	TailPlannedRecsPerSec float64 `json:"tail_planned_recs_per_sec"`
	TailSpeedup           float64 `json:"tail_speedup"`
}

// measure runs op repeatedly until the window is above timer noise and
// returns (seconds per op, mallocs per op).
func measure(op func()) (secPerOp, allocsPerOp float64) {
	const (
		minIters  = 3
		minWindow = time.Second
		maxIters  = 100
	)
	op() // warm-up
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for (time.Since(start) < minWindow || iters < minIters) && iters < maxIters {
		op()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return elapsed.Seconds() / float64(iters),
		float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// parseStringBaseline is the pre-optimization parse path: one string per
// line, string-based ParseAnyRecord. Kept for the before/after comparison.
func parseStringBaseline(data []byte) int {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 {
			continue
		}
		if _, _, err := clf.ParseAnyRecord(line); err == nil {
			n++
		}
	}
	return n
}

// runBenchIngest benchmarks the ingestion layer and writes the measurement
// as JSON to path ("-" for stdout).
func runBenchIngest(base eval.RunConfig, workers, shards plan.Knob, path string) error {
	g, err := eval.Topology(base)
	if err != nil {
		return err
	}
	sim, err := simulator.Run(g, base.Params)
	if err != nil {
		return err
	}
	records := sim.Log(g)
	var logBuf bytes.Buffer
	if err := clf.WriteAll(&logBuf, records); err != nil {
		return err
	}
	data := logBuf.Bytes()

	// Two plans: batch parse over the in-memory log, and the live
	// concurrent-feeder shape the multi-shard measurement models.
	parseIn := plan.Input{SizeBytes: int64(len(data)), Kind: plan.KindFile}
	parsePl, notes := plan.Resolve(parseIn, workers, plan.Auto, plan.Auto, plan.Auto, data)
	liveIn := plan.Input{SizeBytes: -1, Kind: plan.KindLive}
	livePl := plan.Decide(liveIn)
	if !shards.Auto {
		s := shards.N
		if s <= 0 {
			s = runtime.GOMAXPROCS(0)
		}
		livePl.Shards, _ = plan.ClampShards(s, liveIn)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchingest:", n)
	}
	fmt.Fprintln(os.Stderr, "benchingest: parse plan:", parsePl)
	fmt.Fprintln(os.Stderr, "benchingest: live plan:", livePl)

	b := ingestBench{
		Name:       "Ingest",
		Agents:     base.Params.Agents,
		Records:    len(records),
		Workers:    parsePl.Workers,
		Shards:     livePl.Shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PlanParse:  parsePl.String(),
		PlanLive:   livePl.String(),
	}
	recs := float64(len(records))

	sec, allocs := measure(func() { parseStringBaseline(data) })
	b.ParseStringRecsPerSec = recs / sec
	b.ParseStringAllocsPerRec = allocs / recs

	sec, allocs = measure(func() {
		if _, err := clf.Stream(bytes.NewReader(data), func(clf.Record) {}); err != nil {
			panic(err)
		}
	})
	b.ParseBytesRecsPerSec = recs / sec
	b.ParseBytesAllocsPerRec = allocs / recs

	sec, _ = measure(func() {
		if err := parseDrop(data, runtime.GOMAXPROCS(0), clf.DefaultStreamDepth, 0); err != nil {
			panic(err)
		}
	})
	b.ParseParallelRecsPerSec = recs / sec

	// The planned parse: when the plan is sequential the planned path IS
	// clf.ReadAll, so reuse its measurement instead of re-timing the same
	// function and recording noise.
	if parsePl.Sequential {
		b.ParsePlannedRecsPerSec = b.ParseBytesRecsPerSec
	} else {
		sec, _ = measure(func() {
			parseDrop(data, parsePl.Workers, parsePl.StreamDepth, parsePl.ChunkBytes)
		})
		b.ParsePlannedRecsPerSec = recs / sec
	}
	b.ParseSpeedup = b.ParsePlannedRecsPerSec / b.ParseBytesRecsPerSec

	if b.sourceBench, err = measureSources(data, recs, parsePl.Workers); err != nil {
		return err
	}

	sec, _ = measure(func() {
		tl, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			panic(err)
		}
		for _, rec := range records {
			tl.Push(rec)
		}
		tl.Flush()
	})
	b.TailRecsPerSec = recs / sec

	// Feed a Tail from one goroutine per core, records partitioned
	// by user so each user's arrival order is preserved.
	feeders := runtime.GOMAXPROCS(0)
	feeds := make([][]clf.Record, feeders)
	for _, rec := range records {
		h := uint32(2166136261)
		for i := 0; i < len(rec.Host); i++ {
			h = (h ^ uint32(rec.Host[i])) * 16777619
		}
		f := int(h % uint32(feeders))
		feeds[f] = append(feeds[f], rec)
	}
	concurrentFeed := func(shardCount int) {
		st, err := core.NewSessionizer(core.Config{Graph: g}, 0, shardCount, true)
		if err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		for _, part := range feeds {
			wg.Add(1)
			go func(part []clf.Record) {
				defer wg.Done()
				for _, rec := range part {
					st.Push(rec)
				}
			}(part)
		}
		wg.Wait()
		st.Flush()
	}
	sec, _ = measure(func() { concurrentFeed(runtime.GOMAXPROCS(0)) })
	b.ShardedRecsPerSec = recs / sec

	// The planned sessionizer: a single-shard plan means one feeder and a
	// single-shard Tail — the baseline path itself — so its speedup is 1.0 by
	// identity rather than a re-measurement of the same loop.
	if livePl.Shards <= 1 {
		b.TailPlannedRecsPerSec = b.TailRecsPerSec
	} else {
		sec, _ = measure(func() { concurrentFeed(livePl.Shards) })
		b.TailPlannedRecsPerSec = recs / sec
	}
	b.TailSpeedup = b.TailPlannedRecsPerSec / b.TailRecsPerSec

	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile(path, out, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"benchingest: %d records; parse %.0f/s string, %.0f/s bytes (%.2f vs %.2f allocs/rec), %.0f/s parallel, %.0f/s planned (%.2fx); sources %.0f/s file, %.0f/s mmap, %.0f/s gzip; tail %.0f/s, sharded %.0f/s, planned %.0f/s (%.2fx; workers=%d shards=%d GOMAXPROCS=%d)\n",
		b.Records, b.ParseStringRecsPerSec, b.ParseBytesRecsPerSec,
		b.ParseStringAllocsPerRec, b.ParseBytesAllocsPerRec,
		b.ParseParallelRecsPerSec, b.ParsePlannedRecsPerSec, b.ParseSpeedup,
		b.FileRecsPerSec, b.MmapRecsPerSec, b.GzipRecsPerSec,
		b.TailRecsPerSec, b.ShardedRecsPerSec, b.TailPlannedRecsPerSec, b.TailSpeedup,
		b.Workers, b.Shards, b.GOMAXPROCS)
	return nil
}
