package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/heuristics"
	"smartsra/internal/metrics"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// Tail is the incremental counterpart of Pipeline: it consumes access-log
// records one at a time or in batches (e.g. from a live log tail) and emits
// reconstructed sessions as soon as they can no longer change.
//
// Records are buffered per user into "activity bursts". A user's burst is
// closed — and handed to the heuristic — when a new record arrives more
// than the page-stay bound ρ after the burst's last request, or when
// Expire/Flush decides the user has gone quiet. Because every heuristic's
// sessions never span a gap larger than ρ (that is the Phase-1 page-stay
// rule), burst-at-a-time reconstruction is exactly equivalent to batch
// processing for Smart-SRA and the time-gap heuristic; the time-total and
// navigation heuristics can merge across >ρ gaps in batch mode, so their
// streamed output may split earlier (documented, covered by tests).
//
// Users hash onto N ≥ 1 shards (NewTail builds one, NewSessionizer any
// number). Each shard owns its own buffer map, expiry wheel, free lists and
// mutex, so a Tail is safe for concurrent use and concurrent feeders contend
// only when their users land on the same shard. The cleaning filter, URI
// resolution and user keying run in the caller's goroutine before a shard
// lock is taken (every Config stage is a pure function, see Pipeline). A
// user lives in exactly one shard and each user's bursts close on their own,
// so per-user processing does not depend on the shard count; Flush and
// Expire merge the shard outputs back into global user order, so the
// emitted sessions are byte-identical for any shard count.
//
// Memory is bounded by the ACTIVE users: when Expire or Flush closes a
// user's burst the user is evicted from the buffer map (and their burst and
// entry storage recycled), so a long-running tail holds state only for users
// inside the current activity window, not for every user ever seen. The
// price is in Stats.Users: a user who returns after eviction is counted
// again, so Users counts user activity periods (distinct users between two
// full drains), not lifetime-unique users — exact unique counting would
// require remembering every user forever, which is the unbounded growth this
// design removes.
type Tail struct {
	cfg    Config
	rho    time.Duration
	shards []*shard
	// Pre-shard stage counters are updated outside every shard lock, so
	// they are atomic.
	records    atomic.Int64
	filtered   atomic.Int64
	unresolved atomic.Int64
}

// shard is one user partition of a Tail: the open bursts of the users that
// hash to it, their expiry wheel, free lists and deferred metrics, all
// guarded by mu.
type shard struct {
	mu       sync.Mutex
	rho      time.Duration
	rhoNano  int64 // rho.Nanoseconds(), for the per-record integer gap check
	heur     heuristics.Reconstructor
	buffers  map[string]*burst
	buffered int // entries currently held in open bursts, across the shard's users
	users    int // user activations (see Stats.Users)
	sessions int // sessions emitted
	// reconstructHist times Heuristic.Reconstruct per burst close, labeled
	// by heuristic so /debug/metrics exposes one series per strategy. Timing
	// is sampled (see reconstructSampleEvery): the count stays exact, the
	// distribution is estimated from every Nth close, and the hot path pays
	// the two time.Now calls only on sampled closes.
	reconstructHist *metrics.Histogram
	skipCloses      int64 // closes left before the next timed reconstruct
	untimedCloses   int64 // closes since the last timed reconstruct

	// appendRec is the heuristic when it implements the allocation-lean
	// streaming extension, nil otherwise (closeInto then falls back to
	// Reconstruct plus an append).
	appendRec heuristics.SessionAppender

	// wheel is the expiry wheel: open-burst users bucketed by the
	// ρ-granularity time bucket of their last activity as of insertion.
	// Entries are lazily revalidated — a user who stayed active is moved
	// forward to the bucket of their true last activity when their old
	// bucket comes up — so a push never pays a bucket move and Expire visits
	// only users whose buckets have aged past the cutoff: O(active), not
	// O(ever seen).
	wheel map[int64][]string

	// Free lists recycle the per-burst storage that eviction retires: burst
	// headers and []session.Entry backing arrays. Both are bounded so a
	// transient spike does not pin memory forever.
	freeBursts  []*burst
	freeEntries [][]session.Entry

	// Deferred mirrors of the process-wide metrics: pushResolved and close
	// touch only these plain fields, and syncMetrics folds them into the
	// atomic registry once per public operation (per batch, not per record).
	pendingSessions int64
	lastBuffered    int64
	maxDepth        int64
	syncedMaxDepth  int64
	// bufferedGauge mirrors buffered for lock-free readers: Buffered sums
	// it across shards so a /debug/metrics scrape never takes a shard lock.
	// Written only under mu.
	bufferedGauge atomic.Int64
}

// reconstructSampleEvery is the close-timing sample rate: the first close and
// every Nth after it run under the clock, and the untimed closes between are
// folded into the sampled observation by weight. At millions of bursts per
// second the histogram's cost drops to ~nothing while count stays exact and
// the estimated distribution tracks the true one.
const reconstructSampleEvery = 64

// Free-list bounds: how many retired burst headers / entry arrays to keep,
// and the largest entry array worth keeping (a pathological mega-burst's
// array is better returned to the allocator).
const (
	maxFreeBursts  = 512
	maxFreeEntries = 512
	maxRecycledCap = 1024
)

// burst is one user's open request run. lastNano mirrors last.UnixNano()
// so the per-record gap check compares plain integers instead of paying
// time.Time.Sub; it is math.MinInt64 while the burst has no activity.
// unsorted records that some entry arrived with a timestamp below the
// burst's max at append time — exactly when the entries slice is out of
// order — so close sorts only bursts that need it, without a scan.
type burst struct {
	entries  []session.Entry
	last     time.Time
	lastNano int64
	unsorted bool
}

// NewTail builds a single-shard streaming processor from the same Config as
// NewPipeline plus the burst gap ρ (zero means the paper's 10 minutes).
func NewTail(cfg Config, rho time.Duration) (*Tail, error) {
	return newTail(cfg, rho, 1)
}

// newTail builds a Tail with the given number of shards (≥ 1).
func newTail(cfg Config, rho time.Duration, shards int) (*Tail, error) {
	p, err := NewPipeline(cfg) // reuse validation and defaulting
	if err != nil {
		return nil, err
	}
	if rho == 0 {
		rho = session.DefaultPageStay
	}
	if rho < 0 {
		return nil, fmt.Errorf("core: negative burst gap %v", rho)
	}
	appendRec, _ := p.cfg.Heuristic.(heuristics.SessionAppender)
	hist := metrics.GetHistogram(metrics.WithLabels(
		"core.tail.reconstruct.seconds", "heur", p.cfg.Heuristic.Name()))
	t := &Tail{cfg: p.cfg, rho: rho, shards: make([]*shard, shards)}
	for i := range t.shards {
		t.shards[i] = &shard{
			rho:             rho,
			rhoNano:         rho.Nanoseconds(),
			heur:            p.cfg.Heuristic,
			appendRec:       appendRec,
			buffers:         make(map[string]*burst),
			wheel:           make(map[int64][]string),
			reconstructHist: hist,
		}
	}
	return t, nil
}

// Shards returns the shard count.
func (t *Tail) Shards() int { return len(t.shards) }

// shardFor returns the shard that owns user.
func (t *Tail) shardFor(user string) *shard {
	return t.shards[shardOf(user, len(t.shards))]
}

// stage runs the pre-shard stages on one record — filter, resolve, key — in
// the caller's goroutine. A record the filter drops or the resolver does not
// know is tallied into *filtered or *unresolved and reports ok == false.
func (t *Tail) stage(rec *clf.Record, filtered, unresolved *int64) (user string, page webgraph.PageID, ok bool) {
	if t.cfg.Filter != nil && !t.cfg.Filter(*rec) {
		*filtered++
		return "", 0, false
	}
	if page, ok = t.cfg.Resolver(rec.URI); !ok {
		*unresolved++
		return "", 0, false
	}
	return t.cfg.Key(*rec), page, true
}

// count adds a push's records and pre-shard drops to the stage counters.
func (t *Tail) count(records, filtered, unresolved int64) {
	if records != 0 {
		t.records.Add(records)
		metricTailRecords.Add(records)
	}
	if filtered != 0 {
		t.filtered.Add(filtered)
	}
	if unresolved != 0 {
		t.unresolved.Add(unresolved)
	}
}

// Push feeds one record, returning any sessions finalized by its arrival
// (usually none; occasionally the previous burst of the same user).
// Sessions of one user are always returned to exactly one caller: the one
// whose record closed the burst. Malformed-record handling belongs to the
// caller (clf.Scanner skips them). Bulk feeders should prefer PushBatch,
// which pays the lock and metrics costs once per batch.
func (t *Tail) Push(rec clf.Record) []session.Session {
	var filtered, unresolved int64
	user, page, ok := t.stage(&rec, &filtered, &unresolved)
	t.count(1, filtered, unresolved)
	if !ok {
		return nil
	}
	sh := t.shardFor(user)
	sh.mu.Lock()
	out := sh.pushResolved(nil, user, page, rec.Time)
	sh.syncMetrics()
	sh.mu.Unlock()
	return out
}

// Buffered returns the number of entries currently held in open bursts —
// the streaming processor's in-memory backlog across all users. It reads
// each shard's atomic mirror instead of taking its lock, so an
// observability scrape (/debug/metrics) never contends with ingestion; the
// sum is exact whenever no push is in flight.
func (t *Tail) Buffered() int {
	var n int64
	for _, sh := range t.shards {
		n += sh.bufferedGauge.Load()
	}
	return int(n)
}

// ActiveUsers returns the number of users with an open burst — the working
// set that bounds the Tail's memory after eviction.
func (t *Tail) ActiveUsers() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.buffers)
		sh.mu.Unlock()
	}
	return n
}

// wheelBuckets returns the number of non-empty expiry-wheel buckets (test
// and debugging hook: the wheel's size tracks the active window, not the
// total users seen).
func (t *Tail) wheelBuckets() int {
	n := 0
	for _, sh := range t.shards {
		sh.mu.Lock()
		n += len(sh.wheel)
		sh.mu.Unlock()
	}
	return n
}

// Expire finalizes every user whose last request is more than ρ before now,
// returning their sessions in user order and evicting the users. Call it
// periodically when tailing a live log so quiet users' sessions are not held
// forever; its cost is proportional to the users whose activity buckets aged
// past the cutoff, independent of how many users the Tail has ever seen.
func (t *Tail) Expire(now time.Time) []session.Session {
	return t.drain(func(sh *shard) []session.Session { return sh.expire(now) })
}

// Flush finalizes everything buffered, in user order, and evicts every user.
// The Tail remains usable afterwards (a returning user is counted anew).
func (t *Tail) Flush() []session.Session {
	return t.drain((*shard).flush)
}

// drain runs f on every shard — concurrently, each under its own lock, so a
// large Expire does not serialize behind every shard in turn and concurrent
// pushes only wait for their own shard's slice of the work — and merges the
// outputs into user order. Each shard's output is already sorted by user and
// a user lives in exactly one shard, so a stable sort on user of the
// concatenation restores the global order without disturbing each user's
// session order. A single shard's output is returned as is.
func (t *Tail) drain(f func(*shard) []session.Session) []session.Session {
	if len(t.shards) == 1 {
		return t.shards[0].drain(f)
	}
	parts := make([][]session.Session, len(t.shards))
	var wg sync.WaitGroup
	for i, sh := range t.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			parts[i] = sh.drain(f)
		}(i, sh)
	}
	wg.Wait()
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]session.Session, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// Stats returns the counters accumulated so far. Sessions counts emitted
// sessions only; buffered requests are not yet sessions. Users counts user
// activations: a user evicted by Expire/Flush who later returns is counted
// again (see the Tail doc). It is exact when no push is in flight.
func (t *Tail) Stats() Stats {
	s := t.stageStats()
	for _, sh := range t.shards {
		sh.mu.Lock()
		s.Users += sh.users
		s.Sessions += sh.sessions
		sh.mu.Unlock()
	}
	return s
}

// stageStats returns the pre-shard stage counters.
func (t *Tail) stageStats() Stats {
	return Stats{
		Records:    int(t.records.Load()),
		Filtered:   int(t.filtered.Load()),
		Unresolved: int(t.unresolved.Load()),
	}
}

// shardOf maps a user key to a shard index via FNV-1a (inlined to avoid the
// hash.Hash32 allocation per record).
func shardOf(user string, shards int) int {
	if shards == 1 {
		return 0 // nothing to route, skip the hash
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}

// pushResolved buffers one already-cleaned, already-resolved request — the
// post-shard half of a push, run under the shard's lock. Finalized sessions
// are appended onto dst; the caller syncs metrics.
func (sh *shard) pushResolved(dst []session.Session, user string, page webgraph.PageID, at time.Time) []session.Session {
	atN := at.UnixNano()
	b := sh.buffers[user]
	out := dst
	if b == nil {
		b = sh.newBurst()
		sh.buffers[user] = b
		sh.users++
		sh.wheelAdd(user, at)
	} else if len(b.entries) > 0 && atN-b.lastNano > sh.rhoNano {
		// Gap close: the user stays buffered (their next burst starts with
		// this record), so no eviction and no wheel touch — the stale wheel
		// entry is revalidated lazily when its bucket ages out.
		out = sh.closeInto(out, user, b)
		b.entries = sh.newEntrySlice()
	} else if atN < b.lastNano {
		b.unsorted = true
	}
	b.entries = append(b.entries, session.Entry{Page: page, Time: at})
	sh.buffered++
	if n := int64(len(b.entries)); n > sh.maxDepth {
		sh.maxDepth = n
	}
	if atN > b.lastNano {
		b.last = at
		b.lastNano = atN
	}
	return out
}

// drain runs f under the shard's lock and syncs the metrics it moved.
func (sh *shard) drain(f func(*shard) []session.Session) []session.Session {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := f(sh)
	sh.syncMetrics()
	return out
}

// expire closes and evicts the shard's users quiet for more than ρ before
// now, in user order.
func (sh *shard) expire(now time.Time) []session.Session {
	if len(sh.wheel) == 0 {
		return nil
	}
	cutBucket := sh.bucketOf(now.Add(-sh.rho))
	var aged []int64
	for bk := range sh.wheel {
		if bk <= cutBucket {
			aged = append(aged, bk)
		}
	}
	if len(aged) == 0 {
		return nil
	}
	sort.Slice(aged, func(i, j int) bool { return aged[i] < aged[j] })
	var users []string
	for _, bk := range aged {
		bucket := sh.wheel[bk]
		delete(sh.wheel, bk)
		for _, u := range bucket {
			b := sh.buffers[u]
			if b == nil || len(b.entries) == 0 {
				continue // evicted since insertion; stale entry, drop it
			}
			if now.Sub(b.last) > sh.rho {
				users = append(users, u)
			} else {
				// Still active: move forward to the bucket of the true last
				// activity (the lazy half of the wheel's bookkeeping).
				sh.wheelAdd(u, b.last)
			}
		}
	}
	// Sorting keeps the emission order identical to the pre-wheel full scan.
	sort.Strings(users)
	var out []session.Session
	for _, u := range users {
		b := sh.buffers[u]
		out = sh.closeInto(out, u, b)
		sh.evict(u, b)
	}
	return out
}

// flush closes and evicts every user of the shard, in user order.
func (sh *shard) flush() []session.Session {
	users := make([]string, 0, len(sh.buffers))
	for u, b := range sh.buffers {
		if len(b.entries) > 0 {
			users = append(users, u)
		}
	}
	sort.Strings(users)
	// Most bursts reconstruct to one session; presizing at one per user
	// absorbs the bulk of the append growth in a full drain.
	out := make([]session.Session, 0, len(users))
	for _, u := range users {
		b := sh.buffers[u]
		out = sh.closeInto(out, u, b)
		sh.evict(u, b)
	}
	clear(sh.wheel)
	return out
}

// closeInto runs the heuristic on a burst and takes ownership of its entries
// (recycling them afterwards — no heuristic retains the input slice; see
// heuristics.Reconstructor). The burst is left empty; the caller decides
// whether to evict it or hand it a fresh entry slice.
func (sh *shard) closeInto(dst []session.Session, user string, b *burst) []session.Session {
	entries := b.entries
	b.entries = nil
	sh.buffered -= len(entries)
	// Out-of-order arrivals within the burst (merged proxy logs, clock
	// skew) are sorted here; cross-burst reordering beyond ρ is a log
	// defect the caller owns. Logs are overwhelmingly in order, and
	// pushResolved flags the rare inversion as it arrives, so the common
	// close pays neither a sort nor a scan.
	if b.unsorted {
		sort.SliceStable(entries, func(i, j int) bool {
			return entries[i].Time.Before(entries[j].Time)
		})
		b.unsorted = false
	}
	from := len(dst)
	if sh.skipCloses == 0 {
		start := time.Now()
		dst = sh.reconstructInto(dst, user, entries)
		sh.reconstructHist.ObserveWeighted(time.Since(start).Seconds(), 1+sh.untimedCloses)
		sh.untimedCloses = 0
		sh.skipCloses = reconstructSampleEvery - 1
	} else {
		dst = sh.reconstructInto(dst, user, entries)
		sh.skipCloses--
		sh.untimedCloses++
	}
	n := len(dst) - from
	sh.sessions += n
	sh.pendingSessions += int64(n)
	sh.recycleEntries(entries)
	return dst
}

// reconstructInto runs the heuristic over one closed burst, appending its
// sessions onto dst — directly when the heuristic supports it, via the
// Reconstruct slice otherwise.
func (sh *shard) reconstructInto(dst []session.Session, user string, entries []session.Entry) []session.Session {
	if sh.appendRec != nil {
		return sh.appendRec.AppendSessions(dst, session.Stream{User: user, Entries: entries})
	}
	return append(dst, sh.heur.Reconstruct(session.Stream{User: user, Entries: entries})...)
}

// evict removes a closed user from the buffer map and recycles the burst
// header. The user's wheel entry (if any) is dropped lazily when its bucket
// ages out.
func (sh *shard) evict(user string, b *burst) {
	delete(sh.buffers, user)
	if len(sh.freeBursts) < maxFreeBursts {
		b.entries = nil
		b.last = time.Time{}
		b.lastNano = math.MinInt64
		b.unsorted = false
		sh.freeBursts = append(sh.freeBursts, b)
	}
}

// newBurst returns a zeroed burst header, recycled when possible, seeded
// with a recycled entry array.
func (sh *shard) newBurst() *burst {
	var b *burst
	if n := len(sh.freeBursts); n > 0 {
		b = sh.freeBursts[n-1]
		sh.freeBursts[n-1] = nil
		sh.freeBursts = sh.freeBursts[:n-1]
	} else {
		b = &burst{}
	}
	b.entries = sh.newEntrySlice()
	b.lastNano = math.MinInt64
	b.unsorted = false
	return b
}

// newEntrySlice pops a recycled entry backing array (len 0), or allocates a
// fresh one at a typical burst's capacity.
func (sh *shard) newEntrySlice() []session.Entry {
	if n := len(sh.freeEntries); n > 0 {
		s := sh.freeEntries[n-1]
		sh.freeEntries[n-1] = nil
		sh.freeEntries = sh.freeEntries[:n-1]
		return s
	}
	// Nothing to recycle: start at a typical burst's size so the common
	// case pays one allocation instead of a 1→2→4→8→16 growth ladder.
	return make([]session.Entry, 0, 16)
}

// recycleEntries returns a closed burst's backing array to the free list.
// Safe because no Reconstructor retains the input entries (they copy what
// they keep), and Snapshot deep-copies — pinned by tests.
func (sh *shard) recycleEntries(s []session.Entry) {
	if cap(s) == 0 || cap(s) > maxRecycledCap || len(sh.freeEntries) >= maxFreeEntries {
		return
	}
	sh.freeEntries = append(sh.freeEntries, s[:0])
}

// wheelAdd inserts user into the expiry-wheel bucket covering at.
func (sh *shard) wheelAdd(user string, at time.Time) {
	bk := sh.bucketOf(at)
	sh.wheel[bk] = append(sh.wheel[bk], user)
}

// bucketOf maps a timestamp to its ρ-width wheel bucket (floor division, so
// pre-epoch timestamps bucket consistently too).
func (sh *shard) bucketOf(at time.Time) int64 {
	ns := at.UnixNano()
	w := int64(sh.rho)
	bk := ns / w
	if ns < 0 && ns%w != 0 {
		bk--
	}
	return bk
}

// syncMetrics folds the deferred per-operation deltas into the process-wide
// atomic metrics — one flush per public operation instead of 3–4 atomic ops
// per record.
func (sh *shard) syncMetrics() {
	if d := int64(sh.buffered) - sh.lastBuffered; d != 0 {
		metricTailBuffered.Add(d)
		sh.bufferedGauge.Add(d)
		sh.lastBuffered = int64(sh.buffered)
	}
	if sh.maxDepth > sh.syncedMaxDepth {
		metricTailMaxDepth.SetMax(sh.maxDepth)
		sh.syncedMaxDepth = sh.maxDepth
	}
	if sh.pendingSessions != 0 {
		metricTailSessions.Add(sh.pendingSessions)
		sh.pendingSessions = 0
	}
}

// entriesSorted reports whether the burst is already in time order (the
// overwhelmingly common case for real logs).
func entriesSorted(entries []session.Entry) bool {
	// UnixNano is order-preserving, and the integer compare keeps this
	// every-close pre-scan off the time.Time comparison slow path.
	prev := int64(math.MinInt64)
	for i := range entries {
		et := entries[i].Time.UnixNano()
		if et < prev {
			return false
		}
		prev = et
	}
	return true
}
