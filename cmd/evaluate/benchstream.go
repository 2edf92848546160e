package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/eval"
	"smartsra/internal/plan"
	"smartsra/internal/simulator"
)

// streamBench is the JSON record -benchstream emits: one self-benchmark of
// the bounded-memory streaming path (clf.Stream/StreamChunked and the
// end-to-end core.Run streaming-sessionizer pipeline) over a simulated log at
// the configured -agents scale. CI runs this and uploads the file;
// EXPERIMENTS.md tracks the trajectory.
//
// stream_speedup compares the adaptive plan's reader against the
// sequential clf.Stream baseline, so it is >= 1.0 by construction: a
// sequential plan's path IS the baseline (speedup 1.0 by identity), and a
// parallel plan only survives the calibration probe when it wins.
type streamBench struct {
	Name       string `json:"name"`
	Agents     int    `json:"agents"`
	Records    int    `json:"records"`
	LogBytes   int    `json:"log_bytes"`
	Workers    int    `json:"workers"`
	Depth      int    `json:"depth"`
	Shards     int    `json:"shards"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Plan is the execution plan the planner chose for this input.
	Plan string `json:"plan"`

	// Reader stage: sequential Scanner-based Stream, the chunk-parallel
	// in-order StreamChunked at full width, and the planned reader.
	StreamRecsPerSec           float64 `json:"stream_recs_per_sec"`
	StreamAllocsPerRec         float64 `json:"stream_allocs_per_rec"`
	StreamParallelRecsPerSec   float64 `json:"stream_parallel_recs_per_sec"`
	StreamParallelAllocsPerRec float64 `json:"stream_parallel_allocs_per_rec"`
	StreamPlannedRecsPerSec    float64 `json:"stream_planned_recs_per_sec"`
	StreamSpeedup              float64 `json:"stream_speedup"`

	// Source stage: the same log re-read from disk through each Source
	// kind (buffered reader, mmap, gzip) at the planned worker width.
	// MmapSpeedup compares the zero-copy mmap source against the in-memory
	// sequential Stream baseline — the "mmap is at least as fast as the
	// buffered reader" claim CI's benchgate enforces.
	sourceBench
	MmapSpeedup float64 `json:"mmap_speedup"`

	// Sessionizer stage in isolation: records pre-parsed, then fed to the
	// planned processor through the batched hot path — parse cost excluded,
	// so this is the tail's own ceiling (the number the 7x parse-to-tail gap
	// was measured against).
	TailRecsPerSec float64 `json:"tail_recs_per_sec"`

	// End to end: the chunked reader feeding a sessionizer via core.Run — the
	// cmd/sessionize -stream / cmd/serve -backfill deployment — plus the
	// heap high-water mark observed while it ran (the bounded-memory
	// claim's number; excludes the benchmark's own in-memory input copy).
	// IngestSingleRecsPerSec re-runs the same pipeline with BatchRecords=1
	// (the per-record legacy path); IngestBatchSpeedup is their ratio, the
	// "batching never loses" claim CI's benchgate enforces.
	IngestRecsPerSec       float64 `json:"ingest_recs_per_sec"`
	IngestSingleRecsPerSec float64 `json:"ingest_single_recs_per_sec"`
	IngestBatchSpeedup     float64 `json:"ingest_batch_speedup"`
	IngestHeapHighWaterMiB float64 `json:"ingest_heap_high_water_mib"`
}

// heapSampler wraps a reader and tracks the heap high-water mark while the
// pipeline drains it (same technique as TestStreamParallelBoundedMemory,
// but sampling every read — the bench log is only a few MiB, so the
// ReadMemStats cost stays negligible).
type heapSampler struct {
	r    io.Reader
	high atomic.Uint64
}

func (h *heapSampler) Read(p []byte) (int, error) {
	h.sample()
	return h.r.Read(p)
}

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.high.Load() {
		h.high.Store(ms.HeapAlloc)
	}
}

// runBenchStream benchmarks the streaming ingestion path and writes the
// measurement as JSON to path ("-" for stdout).
func runBenchStream(base eval.RunConfig, workers, shards, depth plan.Knob, path string) error {
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

	shape := plan.Input{SizeBytes: int64(len(data)), Kind: plan.KindFile}
	pl, notes := plan.Resolve(shape, workers, shards, depth, plan.Auto, data)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchstream:", n)
	}
	fmt.Fprintln(os.Stderr, "benchstream: plan:", pl)

	b := streamBench{
		Name:       "StreamIngest",
		Agents:     base.Params.Agents,
		Records:    len(records),
		LogBytes:   len(data),
		Workers:    pl.Workers,
		Depth:      pl.StreamDepth,
		Shards:     pl.Shards,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Plan:       pl.String(),
	}
	recs := float64(len(records))

	sec, allocs := measure(func() {
		if _, err := clf.Stream(bytes.NewReader(data), func(clf.Record) {}); err != nil {
			panic(err)
		}
	})
	b.StreamRecsPerSec = recs / sec
	b.StreamAllocsPerRec = allocs / recs

	sec, allocs = measure(func() {
		if err := parseDrop(data, runtime.GOMAXPROCS(0), clf.DefaultStreamDepth, 0); err != nil {
			panic(err)
		}
	})
	b.StreamParallelRecsPerSec = recs / sec
	b.StreamParallelAllocsPerRec = allocs / recs

	// The planned reader: a sequential plan's path IS clf.Stream, so reuse
	// that measurement instead of re-timing the same function.
	if pl.Sequential {
		b.StreamPlannedRecsPerSec = b.StreamRecsPerSec
	} else {
		sec, _ = measure(func() {
			if err := parseDrop(data, pl.Workers, pl.StreamDepth, pl.ChunkBytes); err != nil {
				panic(err)
			}
		})
		b.StreamPlannedRecsPerSec = recs / sec
	}
	b.StreamSpeedup = b.StreamPlannedRecsPerSec / b.StreamRecsPerSec

	if b.sourceBench, err = measureSources(data, recs, pl.Workers); err != nil {
		return err
	}
	b.MmapSpeedup = b.MmapRecsPerSec / b.StreamRecsPerSec

	// Sessionizer in isolation: pre-parse once, then time PushBatch over
	// chunk-sized slices — the tail's own ceiling with parse excluded.
	parsed, _, err := clf.ReadAll(bytes.NewReader(data))
	if err != nil {
		return err
	}
	sec, _ = measure(func() {
		st, err := core.NewSessionizer(core.Config{Graph: g}.WithPlan(pl), 0, pl.Shards, false)
		if err != nil {
			panic(err)
		}
		const tailBatch = 8192
		for off := 0; off < len(parsed); off += tailBatch {
			end := off + tailBatch
			if end > len(parsed) {
				end = len(parsed)
			}
			st.PushBatch(parsed[off:end])
		}
		st.Flush()
	})
	b.TailRecsPerSec = recs / sec
	parsed = nil

	var high uint64
	sec, _ = measure(func() {
		st, err := core.NewSessionizer(core.Config{Graph: g}.WithPlan(pl), 0, pl.Shards, false)
		if err != nil {
			panic(err)
		}
		src := &heapSampler{r: bytes.NewReader(data)}
		if _, err := core.Run(st, core.Input{Reader: src}, core.RunOptions{}); err != nil {
			panic(err)
		}
		st.Flush()
		src.sample()
		if h := src.high.Load(); h > high {
			high = h
		}
	})
	b.IngestRecsPerSec = recs / sec
	b.IngestHeapHighWaterMiB = float64(high) / (1 << 20)

	// The same pipeline forced onto the per-record legacy path: the ratio is
	// the batching win, and must never drop below parity.
	singleCfg := core.Config{Graph: g}.WithPlan(pl)
	singleCfg.BatchRecords = 1
	sec, _ = measure(func() {
		st, err := core.NewSessionizer(singleCfg, 0, pl.Shards, false)
		if err != nil {
			panic(err)
		}
		if _, err := core.Run(st, core.Input{Reader: bytes.NewReader(data)}, core.RunOptions{}); err != nil {
			panic(err)
		}
		st.Flush()
	})
	b.IngestSingleRecsPerSec = recs / sec
	b.IngestBatchSpeedup = b.IngestRecsPerSec / b.IngestSingleRecsPerSec

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
		"benchstream: %d records (%d MiB); stream %.0f/s (%.2f allocs/rec), parallel %.0f/s (%.2f allocs/rec), planned %.0f/s (%.2fx); sources %.0f/s file, %.0f/s mmap (%.2fx stream), %.0f/s gzip; tail %.0f/s; ingest %.0f/s batched, %.0f/s per-record (%.2fx), heap high-water %.0f MiB (workers=%d depth=%d shards=%d GOMAXPROCS=%d)\n",
		b.Records, b.LogBytes>>20, b.StreamRecsPerSec, b.StreamAllocsPerRec,
		b.StreamParallelRecsPerSec, b.StreamParallelAllocsPerRec,
		b.StreamPlannedRecsPerSec, b.StreamSpeedup,
		b.FileRecsPerSec, b.MmapRecsPerSec, b.MmapSpeedup, b.GzipRecsPerSec,
		b.TailRecsPerSec,
		b.IngestRecsPerSec, b.IngestSingleRecsPerSec, b.IngestBatchSpeedup, b.IngestHeapHighWaterMiB,
		b.Workers, b.Depth, b.Shards, b.GOMAXPROCS)
	return nil
}
