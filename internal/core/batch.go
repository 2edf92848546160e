package core

import (
	"sort"
	"sync"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// routedRec is one record after the pre-shard stages (filter, resolve, key),
// tagged with its position in the batch so cross-shard output can be merged
// back into arrival order.
type routedRec struct {
	seq  int32
	page webgraph.PageID
	user string
	at   time.Time
}

// seqSessions pairs the sessions one record finalized with that record's
// batch position.
type seqSessions struct {
	seq      int32
	sessions []session.Session
}

// batchScratch is the reusable staging area of one PushBatch call: the
// per-shard routing buckets and the cross-shard merge buffer. Pooled because
// PushBatch is safe for concurrent use.
type batchScratch struct {
	routes [][]routedRec
	merged []seqSessions
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// PushBatch feeds a slice of records, returning the sessions they finalized
// in exactly the order a record-at-a-time Push loop would have returned
// them. It is the amortized hot path: the pre-shard stages (filter, resolve,
// key, shard hash) run once per record on the calling goroutine, but each
// shard's lock is taken once per batch — not once per record — and stage
// counters and metrics flush once per batch. Safe for concurrent use; the
// input slice is not retained.
func (t *Tail) PushBatch(recs []clf.Record) []session.Session {
	return t.PushBatchInto(nil, recs)
}

// PushBatchInto is PushBatch appending onto dst, for callers that hand the
// result straight to a SessionSink and recycle the buffer (the sink contract
// forbids retention): long-running drain loops stay allocation-free on the
// output side. Pass dst[:0] to reuse capacity across batches.
func (t *Tail) PushBatchInto(dst []session.Session, recs []clf.Record) []session.Session {
	if len(recs) == 0 {
		return dst
	}
	t.count(int64(len(recs)), 0, 0)
	var filtered, unresolved int64
	out := dst
	if len(t.shards) == 1 {
		// Nothing to route: the whole batch goes to the shard under one
		// lock, with no staging copy, in batch order.
		sh := t.shards[0]
		sh.mu.Lock()
		for i := range recs {
			if user, page, ok := t.stage(&recs[i], &filtered, &unresolved); ok {
				out = sh.pushResolved(out, user, page, recs[i].Time)
			}
		}
		sh.syncMetrics()
		sh.mu.Unlock()
		t.count(0, filtered, unresolved)
		return out
	}

	scr := batchScratchPool.Get().(*batchScratch)
	if len(scr.routes) != len(t.shards) {
		scr.routes = make([][]routedRec, len(t.shards))
	}
	// Stage and bucket outside any lock.
	for i := range recs {
		if user, page, ok := t.stage(&recs[i], &filtered, &unresolved); ok {
			si := shardOf(user, len(t.shards))
			scr.routes[si] = append(scr.routes[si], routedRec{seq: int32(i), page: page, user: user, at: recs[i].Time})
		}
	}
	t.count(0, filtered, unresolved)

	// One lock acquisition per touched shard. With several shards touched,
	// finalized sessions carry their record's batch position and are merged
	// back into arrival order afterwards, making the output byte-identical
	// to the single-record path; with one, shard order is batch order.
	touched := 0
	for _, route := range scr.routes {
		if len(route) > 0 {
			touched++
		}
	}
	merged := scr.merged[:0]
	for si, route := range scr.routes {
		if len(route) == 0 {
			continue
		}
		sh := t.shards[si]
		sh.mu.Lock()
		for i := range route {
			r := &route[i]
			if touched == 1 {
				out = sh.pushResolved(out, r.user, r.page, r.at)
			} else if s := sh.pushResolved(nil, r.user, r.page, r.at); len(s) > 0 {
				merged = append(merged, seqSessions{seq: r.seq, sessions: s})
			}
		}
		sh.syncMetrics()
		sh.mu.Unlock()
	}
	if len(merged) > 1 {
		sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
	}
	for i := range merged {
		out = append(out, merged[i].sessions...)
		merged[i].sessions = nil
	}
	scr.merged = merged[:0]

	for si, route := range scr.routes {
		for i := range route {
			route[i].user = "" // drop string references while pooled
		}
		scr.routes[si] = route[:0]
	}
	batchScratchPool.Put(scr)
	return out
}
