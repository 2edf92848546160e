package core

import (
	"fmt"
	"io"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// SessionSink consumes sessions as they finalize during streaming
// ingestion. Implementations must not retain the slice past the call.
type SessionSink func([]session.Session)

// Input is what Run reads: an ordered path set — plain, gzip, or mixed, as
// log rotation produces — resumed at Start, or, when Reader is set, one
// borrowed stream (stdin, a pipe, an in-memory log) read to its end.
type Input struct {
	Paths  []string
	Start  clf.FilePos
	Reader io.Reader
}

// RunOptions tunes Run. The zero value streams the input and discards the
// sessions it finalizes.
type RunOptions struct {
	// Sink receives sessions as records finalize them, on the calling
	// goroutine; nil discards them, for callers that only want the side
	// effects (state, metrics, stats) of ingestion.
	Sink SessionSink
	// Progress, when set, runs after every line-aligned chunk with the
	// position whose records — and the sessions they finalized — have been
	// fully pushed and sunk (for Reader input: file 0, offset relative to
	// the reader's start). At that moment Snapshot() is exactly consistent
	// with the position, which is the invariant crash recovery needs. A
	// non-nil error aborts the stream and is returned — the checkpointing
	// caller's clean-stop lever.
	Progress func(clf.FilePos) error
	// Base is the record count already in the sessionizer: 0 for a fresh
	// one, the restored snapshot's Stats.Records after recovery. Cut
	// boundaries count from it.
	Base int64
	// Cuts are journaled timed expiries to replay, in Seq order: Expire(At)
	// runs after record Records and before the next, its sessions going to
	// the sink in place, and cuts at or past the final record run once the
	// input ends. With the cuts a live run journaled, the emitted session
	// stream is byte-identical to that run's.
	Cuts []ExpiryCut
}

// Run streams in into s through the bounded-memory clf pipeline and returns
// the malformed-line count. Lines are parsed in line-aligned chunks on
// Config.Workers goroutines and delivered in input order through a channel
// of depth Config.StreamDepth, so heap stays bounded by (workers + depth)
// chunks however long the input is; plain files are served as zero-copy
// mmap windows and gzip members decode ahead of the parse pool. Each chunk
// goes to PushBatch whole, or — with Config.BatchRecords == 1 — to Push
// record by record; a Reader with BatchRecords == 1, one worker and no
// Progress is read line by line (clf.Stream) instead, so records from an
// interactive pipe surface as their lines arrive. The sessionizer is NOT
// flushed: call Flush (or keep pushing) afterwards, matching live-tail use.
//
// The emitted sessions are byte-identical to pushing clf.ReadAll's records
// one by one, for any workers, depth, chunk size or batch setting — the
// golden-corpus and property harnesses pin this.
func Run(s Sessionizer, in Input, opt RunOptions) (malformed int, err error) {
	f := &feeder{s: s, sink: opt.Sink, count: opt.Base, cuts: opt.Cuts}
	var cfg Config
	switch t := s.(type) {
	case *Tail:
		cfg, f.pushInto = t.cfg, t.pushBatchInto
	case *ShardedTail:
		cfg, f.pushInto = t.cfg, t.PushBatchInto
	default:
		return 0, fmt.Errorf("core: Run needs a *Tail or *ShardedTail, got %T", s)
	}
	if f.sink == nil {
		f.sink = func([]session.Session) {}
	}
	f.single = cfg.BatchRecords == 1
	workers, depth := cfg.effectiveWorkers(), cfg.effectiveStreamDepth()
	switch {
	case in.Reader == nil:
		malformed, err = clf.StreamFilesChunked(in.Paths, clf.StreamConfig{
			Workers:    workers,
			Depth:      depth,
			ChunkBytes: cfg.StreamChunkBytes,
			Start:      in.Start,
		}, f.feed, opt.Progress)
	case f.single && workers == 1 && opt.Progress == nil:
		var one [1]clf.Record
		malformed, err = clf.Stream(in.Reader, func(rec clf.Record) {
			one[0] = rec
			f.feed(one[:])
		})
	default:
		malformed, err = clf.StreamChunked(in.Reader, workers, depth, cfg.StreamChunkBytes, f.feed, opt.Progress)
	}
	if err != nil {
		return malformed, err
	}
	f.expireDue()
	return malformed, nil
}

// feeder is Run's per-chunk delivery: it counts records as they are pushed
// and, whenever the next cut's boundary falls inside a chunk, splits the
// chunk there and runs the cut's Expire in place — exactly the interleaving
// the live run journaled. Splitting never changes emission, because
// PushBatch is pinned byte-identical to a record-at-a-time Push loop.
type feeder struct {
	s        Sessionizer
	pushInto func([]session.Session, []clf.Record) []session.Session
	sink     SessionSink
	single   bool
	count    int64
	cuts     []ExpiryCut
	// buf is one output buffer for the whole run: the sink must not retain
	// the slice past the call, so each batch reuses the previous one's
	// storage and the steady state allocates nothing per batch.
	buf []session.Session
}

func (f *feeder) feed(recs []clf.Record) {
	for len(recs) > 0 {
		f.expireDue()
		n := len(recs)
		if len(f.cuts) > 0 {
			if room := f.cuts[0].Records - f.count; int64(n) > room {
				n = int(room)
			}
		}
		if f.single {
			for i := range recs[:n] {
				f.emit(f.s.Push(recs[i]))
			}
		} else {
			f.buf = f.pushInto(f.buf[:0], recs[:n])
			f.emit(f.buf)
		}
		f.count += int64(n)
		recs = recs[n:]
	}
}

// expireDue applies every cut whose boundary the record count has reached.
func (f *feeder) expireDue() {
	for len(f.cuts) > 0 && f.cuts[0].Records <= f.count {
		f.emit(f.s.Expire(f.cuts[0].At))
		f.cuts = f.cuts[1:]
	}
}

func (f *feeder) emit(out []session.Session) {
	if len(out) > 0 {
		f.sink(out)
	}
}
