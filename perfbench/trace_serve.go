//go:build trace

package main

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/heuristics"
	"smartsra/internal/session"
	"smartsra/internal/webserver"
)

func init() { traceServe = traceServeRun }

// traceServeRun replays the live workload in process, untraced and traced,
// and reports the per-layer metrics from the traced spans.
func traceServeRun(e *env, w *liveWorkload) error {
	releaseMemory()
	var decodes []float64
	for i := 0; i < 11; i++ {
		t0 := time.Now()
		if _, err := decodeTopology(w.topo); err != nil {
			return err
		}
		decodes = append(decodes, time.Since(t0).Seconds())
	}
	e.reportLayer("webgraph.decode_s", median(decodes), "s")
	dir := filepath.Join(filepath.Dir(w.topo), "inproc")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	plain, err := serveInProcess(w, dir, nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	r, err := serveInProcess(w, dir, tr)
	if err != nil {
		return err
	}
	e.gate(r.pin == plain.pin, "traced in-process replay digest equals the untraced one (%s)", r.pin.Stats)
	if err := tr.write(filepath.Join(e.work, fmt.Sprintf("trace-seed%d.tsv", e.seed))); err != nil {
		return err
	}
	self := selfTimes(tr.spans)
	n := counts(tr.spans)
	reqs := float64(len(w.reqs))
	us := func(name string) float64 { return self[name].Seconds() * 1e6 / reqs }
	e.reportLayer("webserver.admission.us_per_req", us("webserver.admission"), "us")
	e.reportLayer("webserver.accesslog.us_per_req", us("webserver.accesslog"), "us")
	e.reportLayer("webserver.site.us_per_req", us("webserver.site"), "us")
	e.reportLayer("core.push_batch.busy_s", self["core.push_batch"].Seconds(), "s")
	e.reportLayer("core.push_batch.calls", float64(n["core.push_batch"]), "count")
	e.reportLayer("core.expire.busy_s", self["core.expire"].Seconds(), "s")
	e.reportLayer("core.expire.calls", float64(n["core.expire"]), "count")
	e.reportLayer("core.flush.busy_s", self["core.flush"].Seconds(), "s")
	e.reportLayer("heuristics.reconstruct.busy_s", self["heuristics.reconstruct"].Seconds(), "s")
	e.reportLayer("heuristics.reconstruct.calls", float64(n["heuristics.reconstruct"]), "count")
	e.reportLayer("session.maximal.busy_s", self["session.maximal"].Seconds(), "s")
	e.reportLayer("sink.write.busy_s", self["sink.write"].Seconds(), "s")
	e.reportLayer("sink.bytes", float64(r.sinkBytes), "B")
	e.reportLayer("sink.sessions", float64(r.stats.Sessions), "count")
	e.reportLayer("core.tail.buffered.entries.max", float64(r.maxBuffer), "count")
	reportTailStats(e, r.stats)
	reportBursts(e, r.bursts)
	e.reportLayer("trace.overhead_ratio", r.wall.Seconds()/plain.wall.Seconds(), "ratio")
	return nil
}

// liveSink is the in-process access log: it writes each record the way
// serve does (second-truncated, flushed per request) and queues it for the
// sessionizer.
type liveSink struct {
	w       *clf.Writer
	bw      *bufio.Writer
	pending []clf.Record
	err     error
}

func (s *liveSink) Record(r clf.Record) {
	r.Time = r.Time.Truncate(time.Second)
	if s.err == nil {
		s.err = s.w.Write(r)
	}
	if s.err == nil {
		s.err = s.w.Flush()
	}
	if s.err == nil {
		s.err = s.bw.Flush()
	}
	s.pending = append(s.pending, r)
}

// spanned wraps a handler in a span.
func spanned(tr *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin(name)
		h.ServeHTTP(w, r)
		tr.end(id)
	})
}

// serveInProcess replays the live workload without a network, on a
// simulated clock that advances w.interval per request, the measured
// replay's cadence: each request goes through webserver.Admission,
// webserver.AccessLogWith and webserver.Site, its record is pushed into the
// tail as soon as it is logged, and Expire runs every serveExpireEvery of
// simulated time. After the last request the clock runs on until every
// user expires.
func serveInProcess(w *liveWorkload, dir string, tr *tracer) (*sessionizeResult, error) {
	start := time.Now()
	g := w.g
	rec := &burstRecorder{h: heuristics.NewSmartSRA(g), tr: tr}
	t, err := core.NewTail(core.Config{Graph: g, Heuristic: rec}, serveRho)
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	lbw := bufio.NewWriter(logf)
	sink := &liveSink{w: clf.NewWriter(lbw), bw: lbw}
	sessPath := filepath.Join(dir, "sessions.txt")
	sf, err := os.Create(sessPath)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	cw := &countingWriter{w: sf}
	res := &sessionizeResult{}
	var sinkErr error
	emit := func(s []session.Session) {
		if len(s) == 0 || sinkErr != nil {
			return
		}
		id := tr.begin("sink.write")
		sinkErr = session.WriteAll(cw, s)
		tr.end(id)
	}

	origin := simStart.Add(serveSkip)
	now := origin
	clock := func() time.Time { return now }
	handler := spanned(tr, "webserver.admission", webserver.NewAdmission(webserver.AdmissionConfig{
		MaxInFlight: 256, TrustForwardedFor: true, Now: clock,
	}).Wrap(spanned(tr, "webserver.accesslog", webserver.AccessLogWith(
		spanned(tr, "webserver.site", webserver.NewSite(g)), sink,
		webserver.LogOptions{Now: clock, TrustForwardedFor: true}))))

	nextExpire := origin.Add(serveExpireEvery)
	expire := func(at time.Time) {
		id := tr.begin("core.expire")
		out := t.Expire(at)
		tr.end(id)
		emit(out)
	}
	for i := range w.reqs {
		r := &w.reqs[i]
		now = origin.Add(time.Duration(i) * w.interval)
		for !nextExpire.After(now) {
			expire(nextExpire)
			nextExpire = nextExpire.Add(serveExpireEvery)
		}
		req := httptest.NewRequest(http.MethodGet, r.uri, nil)
		req.RemoteAddr = "127.0.0.1:40000"
		req.Header.Set("X-Forwarded-For", r.user)
		req.Header.Set("User-Agent", "perfbench/1")
		if r.referer != clf.NoField && r.referer != "" {
			req.Header.Set("Referer", r.referer)
		}
		handler.ServeHTTP(httptest.NewRecorder(), req)
		if sink.err != nil {
			return nil, sink.err
		}
		id := tr.begin("core.push_batch")
		out := t.PushBatch(sink.pending)
		tr.end(id)
		sink.pending = sink.pending[:0]
		res.maxBuffer = max(res.maxBuffer, t.Buffered())
		emit(out)
	}
	for end := now.Add(serveRho + 2*serveExpireEvery); !nextExpire.After(end); nextExpire = nextExpire.Add(serveExpireEvery) {
		expire(nextExpire)
	}
	id := tr.begin("core.flush")
	rest := t.Flush()
	tr.end(id)
	emit(rest)
	if sinkErr != nil {
		return nil, sinkErr
	}
	if err := sf.Close(); err != nil {
		return nil, err
	}
	res.wall = time.Since(start)
	res.stats = t.Stats()
	res.bursts = rec.bursts
	res.sinkBytes = cw.n
	sum, err := fileSHA256(sessPath)
	if err != nil {
		return nil, err
	}
	res.pin = ingestPin{SHA256: sum, Stats: res.stats.String()}
	return res, nil
}

var _ webserver.LogSink = (*liveSink)(nil)
