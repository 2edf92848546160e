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
// them. The pre-shard stages (filter, resolve, key, shard hash) run once per
// record on the calling goroutine, but each shard's lock is taken once per
// batch — not once per record — and stage counters and metrics flush once
// per batch. Safe for concurrent use; the input slice is not retained.
func (st *ShardedTail) PushBatch(recs []clf.Record) []session.Session {
	return st.PushBatchInto(nil, recs)
}

// PushBatchInto is PushBatch appending onto dst, for callers that hand the
// result straight to a SessionSink and recycle the buffer (the sink contract
// forbids retention): long-running drain loops stay allocation-free on the
// output side. Pass dst[:0] to reuse capacity across batches.
func (st *ShardedTail) PushBatchInto(dst []session.Session, recs []clf.Record) []session.Session {
	if len(recs) == 0 {
		return dst
	}
	st.records.Add(int64(len(recs)))
	metricTailRecords.Add(int64(len(recs)))

	scr := batchScratchPool.Get().(*batchScratch)
	if len(scr.routes) != len(st.shards) {
		scr.routes = make([][]routedRec, len(st.shards))
	}

	// Stage and bucket: filter → resolve → key → shard, all pure functions,
	// outside any lock.
	var filtered, unresolved int64
	for i := range recs {
		rec := &recs[i]
		if st.cfg.Filter != nil && !st.cfg.Filter(*rec) {
			filtered++
			continue
		}
		page, ok := st.cfg.Resolver(rec.URI)
		if !ok {
			unresolved++
			continue
		}
		user := st.cfg.Key(*rec)
		si := shardOf(user, len(st.shards))
		scr.routes[si] = append(scr.routes[si], routedRec{seq: int32(i), page: page, user: user, at: rec.Time})
	}
	if filtered != 0 {
		st.filtered.Add(filtered)
	}
	if unresolved != 0 {
		st.unresolved.Add(unresolved)
	}

	touched := 0
	last := -1
	for si := range scr.routes {
		if len(scr.routes[si]) > 0 {
			touched++
			last = si
		}
	}

	out := dst
	switch {
	case touched == 0:
		// Everything filtered or unresolved.
	case touched == 1:
		// Single-shard fast path (always taken at shards == 1): per-shard
		// processing order is batch order, so no merge is needed.
		sh := st.shards[last]
		route := scr.routes[last]
		sh.mu.Lock()
		for i := range route {
			r := &route[i]
			out = sh.tail.pushResolved(out, r.user, r.page, r.at)
		}
		sh.tail.syncMetrics()
		sh.mu.Unlock()
	default:
		// One lock acquisition per touched shard; finalized sessions carry
		// their record's batch position and are merged back into arrival
		// order afterwards, making the output byte-identical to the
		// single-record path.
		merged := scr.merged[:0]
		for si := range scr.routes {
			route := scr.routes[si]
			if len(route) == 0 {
				continue
			}
			sh := st.shards[si]
			sh.mu.Lock()
			for i := range route {
				r := &route[i]
				if s := sh.tail.pushResolved(nil, r.user, r.page, r.at); len(s) > 0 {
					merged = append(merged, seqSessions{seq: r.seq, sessions: s})
				}
			}
			sh.tail.syncMetrics()
			sh.mu.Unlock()
		}
		if len(merged) > 0 {
			sort.Slice(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })
			for i := range merged {
				out = append(out, merged[i].sessions...)
				merged[i].sessions = nil
			}
		}
		scr.merged = merged
	}

	for si := range scr.routes {
		route := scr.routes[si]
		for i := range route {
			route[i].user = "" // drop string references while pooled
		}
		scr.routes[si] = route[:0]
	}
	scr.merged = scr.merged[:0]
	batchScratchPool.Put(scr)
	return out
}
