// Package core is the library's front door: the reactive web usage data
// processing pipeline the paper describes. It chains the substrates —
// Common Log Format parsing (internal/clf), data cleaning, user
// identification (internal/prep), and session reconstruction
// (internal/heuristics, with Smart-SRA as the default) — behind one
// configuration and one call:
//
//	g, _ := webgraph.Decode(topologyFile)
//	p, _ := core.NewPipeline(core.Config{Graph: g})
//	result, _ := p.ProcessLog(logFile)
//	for _, s := range result.Sessions { ... }
package core

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/prep"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Process-wide throughput instrumentation, aggregated across all Pipelines
// and Tails (per-run numbers stay available via Stats). The counters are
// atomic, so concurrent Pipeline use keeps exact totals.
var (
	metricPipelineRecords  = metrics.GetCounter("core.pipeline.records")
	metricPipelineSessions = metrics.GetCounter("core.pipeline.sessions")
	metricTailRecords      = metrics.GetCounter("core.tail.records")
	metricTailSessions     = metrics.GetCounter("core.tail.sessions")
	// metricTailBuffered tracks entries currently buffered in open bursts —
	// the streaming processor's memory exposure. metricTailMaxDepth is the
	// high watermark of any single user's burst depth, the signal that one
	// user (e.g. a merged proxy identity) is accumulating without closing.
	metricTailBuffered = metrics.GetGauge("core.tail.buffered.entries")
	metricTailMaxDepth = metrics.GetGauge("core.tail.buffered.maxdepth")
)

// Config assembles a Pipeline. Graph is required; everything else has
// production defaults.
type Config struct {
	// Graph is the site topology; required (the default heuristic and the
	// URI resolver both need it).
	Graph *webgraph.Graph
	// Heuristic reconstructs sessions; nil means Smart-SRA with the paper's
	// thresholds.
	Heuristic heuristics.Reconstructor
	// Filter cleans records before user identification; nil means
	// clf.StandardCleaning(). Use clf.KeepAll to disable cleaning.
	Filter clf.Filter
	// Key identifies users; nil means prep.ByIP.
	Key prep.UserKey
	// Resolver maps URIs to pages; nil means resolving against Graph labels.
	Resolver prep.Resolver
	// Workers bounds the pipeline's parallelism: log parsing, stream
	// building, and session reconstruction all fan out over this many
	// goroutines, with output identical to the sequential path for any
	// value. Zero keeps the legacy sequential behaviour; negative means
	// GOMAXPROCS.
	Workers int
	// StreamDepth is the depth of the in-order delivery channel used by the
	// bounded-memory streaming ingestion path (Run): how many parsed ~1 MiB
	// chunks may be in flight between the log reader and the session
	// processor. Together with Workers it caps the streaming path's heap at
	// roughly (StreamDepth + Workers) chunks, independent of log length.
	// <= 0 means clf.DefaultStreamDepth. The value never changes the output,
	// only the memory/throughput trade.
	StreamDepth int
	// StreamChunkBytes is the streaming reader's chunk size, which is also
	// the granularity of Run's progress callbacks — and therefore of
	// checkpoints. <= 0 means the clf default (~1 MiB). Like StreamDepth it
	// never changes the output.
	StreamChunkBytes int
	// BatchRecords selects how ingestion hands parsed records to the
	// sessionizer: 1 feeds Push record-at-a-time (the low-latency choice for
	// interactive pipes, where the batch path would wait for a full chunk
	// before emitting anything); any other value hands each parsed chunk to
	// PushBatch whole (the throughput choice — one lock acquisition and one
	// metrics flush per chunk). The knob never changes the emitted
	// sessions, only when they surface.
	BatchRecords int
}

// effectiveWorkers resolves the Workers knob: 0 → 1 (sequential zero
// value), < 0 → GOMAXPROCS, otherwise the explicit count.
func (c Config) effectiveWorkers() int {
	switch {
	case c.Workers == 0:
		return 1
	case c.Workers < 0:
		return runtime.GOMAXPROCS(0)
	default:
		return c.Workers
	}
}

// effectiveStreamDepth resolves the StreamDepth knob.
func (c Config) effectiveStreamDepth() int {
	if c.StreamDepth <= 0 {
		return clf.DefaultStreamDepth
	}
	return c.StreamDepth
}

// Pipeline is an immutable, reusable log-to-sessions processor. It is safe
// for concurrent use: every stage is a pure function of its input.
type Pipeline struct {
	cfg Config
}

// NewPipeline validates cfg and returns a Pipeline.
func NewPipeline(cfg Config) (*Pipeline, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: Config.Graph is required")
	}
	if cfg.Heuristic == nil {
		cfg.Heuristic = heuristics.NewSmartSRA(cfg.Graph)
	}
	if cfg.Filter == nil {
		cfg.Filter = clf.StandardCleaning()
	}
	if cfg.Key == nil {
		cfg.Key = prep.ByIP
	}
	if cfg.Resolver == nil {
		cfg.Resolver = prep.GraphResolver(cfg.Graph)
	}
	return &Pipeline{cfg: cfg}, nil
}

// Result is the outcome of processing one log.
type Result struct {
	// Sessions are the reconstructed sessions across all users.
	Sessions []session.Session
	// Streams are the cleaned per-user request streams the heuristic saw.
	Streams []session.Stream
	// Stats describes what happened at each stage.
	Stats Stats
}

// Stats counts the pipeline stages' effects.
type Stats struct {
	// Records is the number of well-formed CLF records read.
	Records int
	// Malformed is the number of unparseable log lines skipped.
	Malformed int
	// Filtered is the number of records dropped by cleaning.
	Filtered int
	// Unresolved is the number of cleaned records whose URI matched no page.
	Unresolved int
	// Users is the number of distinct users identified.
	Users int
	// Sessions is the number of reconstructed sessions.
	Sessions int
}

// String summarizes the stats.
func (s Stats) String() string {
	return fmt.Sprintf("records=%d malformed=%d filtered=%d unresolved=%d users=%d sessions=%d",
		s.Records, s.Malformed, s.Filtered, s.Unresolved, s.Users, s.Sessions)
}

// ProcessLog runs the full pipeline on a CLF log: parse (skipping malformed
// lines), clean, identify users, order each user's requests, and reconstruct
// sessions. It fails only on read errors; data-quality issues are counted in
// Stats.
func (p *Pipeline) ProcessLog(r io.Reader) (*Result, error) {
	var records []clf.Record
	var malformed int
	var err error
	if workers := p.cfg.effectiveWorkers(); workers == 1 {
		records, malformed, err = clf.ReadAll(r)
	} else {
		// A deep order channel keeps the batch path free-running: the
		// consumer only appends, so backpressure would just idle workers.
		malformed, err = clf.StreamChunked(r, workers, 4*workers, 0, func(recs []clf.Record) {
			records = append(records, recs...)
		}, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := p.ProcessRecords(records)
	if err != nil {
		return nil, err
	}
	res.Stats.Malformed = malformed
	return res, nil
}

// ProcessRecords runs the pipeline on already-parsed records.
func (p *Pipeline) ProcessRecords(records []clf.Record) (*Result, error) {
	workers := p.cfg.effectiveWorkers()
	streams, pstats, err := prep.BuildStreamsWith(records, p.cfg.Resolver, prep.Options{
		Filter: p.cfg.Filter,
		Key:    p.cfg.Key,
	}, workers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	start := time.Now()
	sessions := heuristics.ReconstructAllWith(p.cfg.Heuristic, streams, workers)
	metrics.GetHistogram(metrics.WithLabels(
		"core.pipeline.reconstruct.seconds", "heur", p.cfg.Heuristic.Name(),
	)).ObserveDuration(time.Since(start))
	metricPipelineRecords.Add(int64(pstats.Records))
	metricPipelineSessions.Add(int64(len(sessions)))
	return &Result{
		Sessions: sessions,
		Streams:  streams,
		Stats: Stats{
			Records:    pstats.Records,
			Filtered:   pstats.Filtered,
			Unresolved: pstats.Unresolved,
			Users:      pstats.Users,
			Sessions:   len(sessions),
		},
	}, nil
}

// Heuristic returns the reconstructor the pipeline uses.
func (p *Pipeline) Heuristic() heuristics.Reconstructor { return p.cfg.Heuristic }
