//go:build trace

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/plan"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

func init() { traceIngest = traceIngestRun }

// longBurst is the burst length above which a burst counts as long. On the
// paper log about 2% of entries are in such bursts (the median burst has
// ~12 entries); on the proxy logs about half are.
const longBurst = 64

// burstRecorder wraps Smart-SRA as the tail's heuristic, recording each
// closed burst's length and, under a tracer, a span per reconstruction. It
// implements heuristics.SessionAppender, so the tail keeps its
// allocation-lean append path instead of falling back to Reconstruct.
type burstRecorder struct {
	h      heuristics.SmartSRA
	tr     *tracer
	bursts []int
}

var _ heuristics.SessionAppender = (*burstRecorder)(nil)

func (r *burstRecorder) Name() string { return r.h.Name() }

func (r *burstRecorder) Reconstruct(s session.Stream) []session.Session {
	return r.AppendSessions(nil, s)
}

// AppendSessions reconstructs one burst. session.MaximalOnly already ran
// inside Smart-SRA; under a tracer it runs again on the burst's output so
// its share can be estimated. That span closes after the reconstruction
// span, so it is the caller's child and never counts as reconstruction.
func (r *burstRecorder) AppendSessions(dst []session.Session, s session.Stream) []session.Session {
	r.bursts = append(r.bursts, len(s.Entries))
	from := len(dst)
	id := r.tr.begin("heuristics.reconstruct")
	dst = r.h.AppendSessions(dst, s)
	r.tr.end(id)
	if r.tr != nil {
		id := r.tr.begin("session.maximal")
		session.MaximalOnly(dst[from:])
		r.tr.end(id)
	}
	return dst
}

// traceIngestRun runs the in-process sessionizer over every log twice, once
// untraced and once traced, checks both outputs against the reference, and
// reports the per-layer metrics from the traced spans.
func traceIngestRun(e *env, w ingestWorkload, ins []*logInput, want []ingestPin, measured float64) error {
	decode, resolve, err := layerSetup(ins)
	if err != nil {
		return err
	}
	e.reportLayer("webgraph.decode_s", decode, "s")
	e.reportLayer("plan.resolve_s", resolve, "s")
	var (
		spans            []span
		untraced, traced time.Duration
		st               core.Stats // summed over the logs
		bursts           []int
		maxBuffer        int
		sinkBytes        int64
	)
	for i, in := range ins {
		out := filepath.Join(filepath.Dir(in.Log), "sessions.trace")
		plain, err := sessionizeInProcess(in, out, nil)
		if err != nil {
			return err
		}
		tr := newTracer()
		r, err := sessionizeInProcess(in, out, tr)
		if err != nil {
			return err
		}
		e.gate(plain.pin == want[i] && r.pin == want[i], "%s log %d: traced and untraced in-process digests equal the sessionize output", w.name, i)
		untraced += plain.wall
		traced += r.wall
		// Span IDs are per tracer; offset them so the logs' trees stay apart.
		base := int32(len(spans))
		for _, s := range tr.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		if i == 0 {
			if err := tr.write(filepath.Join(e.work, fmt.Sprintf("trace-seed%d.tsv", e.seed))); err != nil {
				return err
			}
		}
		st.Records += r.stats.Records
		st.Malformed += r.stats.Malformed
		st.Filtered += r.stats.Filtered
		st.Unresolved += r.stats.Unresolved
		st.Users += r.stats.Users
		st.Sessions += r.stats.Sessions
		bursts = append(bursts, r.bursts...)
		maxBuffer = max(maxBuffer, r.maxBuffer)
		sinkBytes += r.sinkBytes
	}
	self := selfTimes(spans)
	n := counts(spans)
	sec := func(name string) float64 { return self[name].Seconds() }

	records := st.Records
	parse := sec("clf.parse")
	tailBusy := sec("core.push_batch") + sec("core.flush") + sec("heuristics.reconstruct")
	sink := sec("sink.write")
	allocs, err := parseAllocsPerRecord(ins)
	if err != nil {
		return err
	}
	e.reportLayer("clf.parse.busy_s", parse, "s")
	e.reportLayer("clf.parse.recs_per_s", float64(records)/parse, "rec/s")
	e.reportLayer("clf.parse.allocs_per_rec", allocs, "count")
	e.reportLayer("clf.malformed", float64(st.Malformed), "count")
	e.reportLayer("core.push_batch.busy_s", sec("core.push_batch"), "s")
	e.reportLayer("core.push_batch.calls", float64(n["core.push_batch"]), "count")
	e.reportLayer("core.flush.busy_s", sec("core.flush"), "s")
	e.reportLayer("core.tail.buffered.entries.max", float64(maxBuffer), "count")
	reportTailStats(e, st)
	reportBursts(e, bursts)
	e.reportLayer("heuristics.reconstruct.busy_s", sec("heuristics.reconstruct"), "s")
	e.reportLayer("heuristics.reconstruct.calls", float64(n["heuristics.reconstruct"]), "count")
	e.reportLayer("session.maximal.busy_s", sec("session.maximal"), "s")
	e.reportLayer("sink.write.busy_s", sink, "s")
	e.reportLayer("sink.bytes", float64(sinkBytes), "B")
	e.reportLayer("sink.sessions", float64(st.Sessions), "count")
	e.reportLayer("trace.overhead_ratio", traced.Seconds()/untraced.Seconds(), "ratio")

	// The serial-stage model: if parse, tail and sink run one after the
	// other, the end-to-end rate is the harmonic sum of the stage rates.
	parseRate, tailRate, sinkRate := float64(records)/parse, float64(records)/tailBusy, float64(records)/sink
	model := 1 / (1/parseRate + 1/tailRate + 1/sinkRate)
	e.reportLayer("ingest.serial_model_recs_per_s", model, "rec/s")
	fmt.Printf("model stage rec/s parse=%.0f tail=%.0f sink=%.0f serial_prediction=%.0f measured=%.0f ratio=%.3f\n",
		parseRate, tailRate, sinkRate, model, measured, measured/model)
	fmt.Printf("model shares parse=%.3f tail=%.3f (reconstruct=%.3f maximal_est=%.3f) sink=%.3f\n",
		parse/(parse+tailBusy+sink), tailBusy/(parse+tailBusy+sink), sec("heuristics.reconstruct")/(parse+tailBusy+sink),
		sec("session.maximal")/(parse+tailBusy+sink), sink/(parse+tailBusy+sink))

	one, err := ingestPass(e, ins, want, false, []string{"GOMAXPROCS=1"})
	if err != nil {
		return err
	}
	e.reportLayer("ingest.gomaxprocs1_recs_per_s", float64(records)/one.wall.Seconds(), "rec/s")
	return nil
}

// reportTailStats reports the sessionizer's Stats() counts, which pin that
// the same work was done.
func reportTailStats(e *env, st core.Stats) {
	e.reportLayer("core.tail.records", float64(st.Records), "count")
	e.reportLayer("core.tail.filtered", float64(st.Filtered), "count")
	e.reportLayer("core.tail.unresolved", float64(st.Unresolved), "count")
	e.reportLayer("core.tail.users", float64(st.Users), "count")
	e.reportLayer("core.tail.sessions", float64(st.Sessions), "count")
}

// reportBursts describes the workload property that separates the proxy
// workload from the paper one: how long the closed bursts are.
func reportBursts(e *env, bursts []int) {
	lens := make([]float64, len(bursts))
	var entries, long int
	for i, b := range bursts {
		lens[i] = float64(b)
		entries += b
		if b > longBurst {
			long += b
		}
	}
	e.reportLayer("core.burst_len.p50", median(lens), "count")
	e.reportLayer("core.burst_len.max", maxOf(lens), "count")
	e.reportLayer("core.long_burst_share", float64(long)/float64(entries), "ratio")
}

// parseAllocsPerRecord counts heap allocations per record of a parse-only
// pass through the same streaming reader.
func parseAllocsPerRecord(ins []*logInput) (float64, error) {
	var before, after runtime.MemStats
	records := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, in := range ins {
		if _, err := clf.StreamFilesChunked([]string{in.Log}, clf.StreamConfig{Workers: 1}, func(recs []clf.Record) {
			records += len(recs)
		}, nil); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(records), nil
}

// computeIngestReference sessionizes every log in process, sequentially.
func computeIngestReference(ins []*logInput) ([]ingestPin, error) {
	ref := make([]ingestPin, len(ins))
	for i, in := range ins {
		r, err := sessionizeInProcess(in, filepath.Join(filepath.Dir(in.Log), "sessions.ref"), nil)
		if err != nil {
			return nil, err
		}
		ref[i] = r.pin
	}
	return ref, nil
}

// layerSetup repeats in process the set-up calls sessionize makes before
// its first record: topology decode, plan resolution with its calibration
// probe on the real input, and sessionizer construction. It returns the
// median time of the decode and of the plan resolution over 21 set-ups.
func layerSetup(ins []*logInput) (decode, resolve float64, err error) {
	const reps = 21
	var dec, res []float64
	for i := 0; i < reps; i++ {
		in := ins[i%len(ins)]
		t0 := time.Now()
		g, err := decodeTopology(in.Topology)
		if err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		paths := []string{in.Log}
		pl, _ := plan.Resolve(plan.StatPaths(paths), plan.Auto, plan.Auto, plan.Auto, plan.Auto, plan.SamplePaths(paths))
		t2 := time.Now()
		cfg := core.Config{Graph: g, Heuristic: heuristics.NewSmartSRA(g)}.WithPlan(pl)
		if _, err := core.NewSessionizer(cfg, 0, pl.Shards, false); err != nil {
			return 0, 0, err
		}
		dec = append(dec, t1.Sub(t0).Seconds())
		res = append(res, t2.Sub(t1).Seconds())
		runtime.GC()
	}
	return median(dec), median(res), nil
}

func decodeTopology(path string) (*webgraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return webgraph.Decode(bufio.NewReader(f))
}

// sessionizeResult is the outcome of one in-process sessionization.
type sessionizeResult struct {
	pin       ingestPin
	stats     core.Stats
	wall      time.Duration
	bursts    []int // entries per closed burst
	maxBuffer int   // most entries buffered in open bursts after a batch
	sinkBytes int64
}

// sessionizeInProcess is sessionize -stream rebuilt from the layers' public
// calls: the clf streaming reader feeds parsed chunks to Tail.PushBatch,
// Smart-SRA reconstructs closed bursts, and session.WriteAll appends each
// batch's sessions to the output file. With a tracer, every call is a span.
func sessionizeInProcess(in *logInput, out string, tr *tracer) (*sessionizeResult, error) {
	start := time.Now()
	root := tr.begin("ingest")
	id := tr.begin("webgraph.decode")
	g, err := decodeTopology(in.Topology)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	rec := &burstRecorder{h: heuristics.NewSmartSRA(g), tr: tr}
	t, err := core.NewTail(core.Config{Graph: g, Heuristic: rec}, 0)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	res := &sessionizeResult{}
	var sinkErr error
	write := func(sessions []session.Session) {
		if len(sessions) == 0 || sinkErr != nil {
			return
		}
		id := tr.begin("sink.write")
		sinkErr = session.WriteAll(bw, sessions)
		tr.end(id)
	}
	var parseStart int64
	if tr != nil {
		parseStart = tr.now()
	}
	malformed, err := clf.StreamFilesChunked([]string{in.Log}, clf.StreamConfig{Workers: 1}, func(recs []clf.Record) {
		if tr != nil {
			tr.record("clf.parse", parseStart, tr.now())
		}
		id := tr.begin("core.push_batch")
		out := t.PushBatch(recs)
		tr.end(id)
		res.maxBuffer = max(res.maxBuffer, t.Buffered())
		write(out)
		if tr != nil {
			parseStart = tr.now()
		}
	}, nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin("core.flush")
	rest := t.Flush()
	tr.end(id)
	write(rest)
	if sinkErr != nil {
		return nil, sinkErr
	}
	id = tr.begin("sink.write")
	err = bw.Flush()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.end(root)
	if err := f.Close(); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	res.stats = t.Stats()
	res.stats.Malformed = malformed
	res.bursts = rec.bursts
	res.sinkBytes = cw.n
	sum, err := fileSHA256(out)
	if err != nil {
		return nil, err
	}
	res.pin = ingestPin{SHA256: sum, Stats: res.stats.String()}
	return res, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
