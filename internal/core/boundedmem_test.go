package core

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"smartsra/internal/heuristics"
)

// synthLogReader generates an endless-looking CLF log on the fly — nothing
// is materialized, so the reader itself is O(1) and any heap growth during
// ingestion belongs to the pipeline under test. Hosts rotate through a
// fixed pool, URIs through the graph's pages, and the clock jumps forward
// an hour every jumpEvery lines so bursts keep closing (and sessions keep
// being emitted and dropped) instead of accumulating forever — the
// streaming deployment the paper's reactive model assumes.
type synthLogReader struct {
	remaining int64 // bytes still to produce (truncated at a line boundary)
	lines     int64
	pending   []byte

	hosts     int
	uris      []string
	base      time.Time
	stamp     string // formatted timestamp, re-rendered when the clock moves
	jumpEvery int64
}

func newSynthLogReader(totalBytes int64, uris []string) *synthLogReader {
	base := time.Date(2006, 1, 2, 0, 0, 0, 0, time.UTC)
	return &synthLogReader{
		remaining: totalBytes,
		hosts:     512,
		uris:      uris,
		base:      base,
		stamp:     base.Format("02/Jan/2006:15:04:05 -0700"),
		jumpEvery: 100_000,
	}
}

func (r *synthLogReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 && len(r.pending) == 0 {
		return 0, io.EOF
	}
	for len(r.pending) < len(p) && r.remaining > 0 {
		if r.lines%r.jumpEvery == 0 {
			// Advance the clock one hour per block plus one second per
			// 50 lines inside it, so per-user gaps within a block stay
			// under ρ while block boundaries exceed it.
			at := r.base.Add(time.Duration(r.lines/r.jumpEvery) * time.Hour)
			r.stamp = at.Format("02/Jan/2006:15:04:05 -0700")
		} else if r.lines%50 == 0 {
			at := r.base.Add(time.Duration(r.lines/r.jumpEvery)*time.Hour +
				time.Duration(r.lines%r.jumpEvery/50)*time.Second)
			r.stamp = at.Format("02/Jan/2006:15:04:05 -0700")
		}
		host := r.lines % int64(r.hosts)
		line := fmt.Sprintf("10.0.%d.%d - - [%s] \"GET %s HTTP/1.1\" 200 %d\n",
			host/256, host%256, r.stamp, r.uris[r.lines%int64(len(r.uris))], 100+r.lines%1000)
		r.pending = append(r.pending, line...)
		r.remaining -= int64(len(line))
		r.lines++
	}
	n := copy(p, r.pending)
	r.pending = r.pending[:copy(r.pending, r.pending[n:])]
	return n, nil
}

// memSampler wraps a reader and records the heap high-water mark while the
// pipeline drains it, sampling every few Read calls so the measurement
// covers the whole ingestion, not just the end state.
type memSampler struct {
	r     io.Reader
	calls int
	high  atomic.Uint64
}

func (m *memSampler) Read(p []byte) (int, error) {
	m.calls++
	if m.calls%8 == 0 {
		m.sample()
	}
	return m.r.Read(p)
}

func (m *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.high.Load() {
		m.high.Store(ms.HeapAlloc)
	}
}

// TestStreamParallelBoundedMemory is the bounded-memory regression test: a
// multi-hundred-MiB synthetic log (generated, never materialized) streamed
// into a ShardedTail through Run must keep the heap high-water under a
// fixed budget that does not depend on the log's length — the property that
// separates streaming from a batch read, whose record slice alone would
// dwarf the budget. Two lengths run under the same budget to pin the
// independence claim.
func TestStreamParallelBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-MiB ingestion")
	}
	// ~64 MiB and ~256 MiB (quartered under -race, which slows parsing an
	// order of magnitude); the budget stays fixed across lengths and far
	// below the longer log.
	short, long := int64(64<<20), int64(256<<20)
	if raceEnabled {
		short, long = 16<<20, 64<<20
	}
	// Measured high-water is ~85 MiB (≈40 MiB live × the GC's 2× growth
	// target); the budget leaves headroom without letting a regression to
	// O(log) memory slip through — the long log is twice the budget.
	const budget = 128 << 20

	g := goldenGraph()
	uris := make([]string, 0, g.NumPages())
	for _, p := range g.Pages() {
		uris = append(uris, g.Label(p))
	}

	run := func(total int64) uint64 {
		st, err := NewShardedTail(Config{
			Graph: g,
			// Time-gap keeps burst reconstruction linear; the test measures
			// ingestion memory, not Smart-SRA's CPU profile.
			Heuristic:   heuristics.NewTimeGap(),
			Workers:     4,
			StreamDepth: 8,
		}, 0, 4)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		src := &memSampler{r: newSynthLogReader(total, uris)}
		bad, err := Run(st, Input{Reader: src}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Fatalf("synthetic log produced %d malformed lines", bad)
		}
		st.Flush()
		src.sample()
		stats := st.Stats()
		if stats.Records == 0 || stats.Sessions == 0 {
			t.Fatalf("pipeline did no work: %+v", stats)
		}
		t.Logf("total=%d MiB records=%d sessions=%d heap high-water=%d MiB",
			total>>20, stats.Records, stats.Sessions, src.high.Load()>>20)
		return src.high.Load()
	}

	highShort := run(short)
	highLong := run(long)
	if highShort > budget {
		t.Errorf("short log (%d MiB): heap high-water %d MiB exceeds budget %d MiB",
			short>>20, highShort>>20, uint64(budget)>>20)
	}
	if highLong > budget {
		t.Errorf("long log (%d MiB): heap high-water %d MiB exceeds budget %d MiB — "+
			"streaming ingestion is no longer bounded", long>>20, highLong>>20, uint64(budget)>>20)
	}
	// A 4× longer log must not move the high-water materially: that is the
	// length-independence claim itself. The slack is relative (up to 2× the
	// short run, floored at 32 MiB) because the GC's high-water jitters with
	// pacing — a true O(length) regression shows up as ~4× growth and blows
	// the absolute budget above anyway. Skipped under -race, where the
	// scaled-down short run ends before the heap reaches its steady-state
	// plateau and the comparison would measure ramp-up, not growth.
	slack := highShort
	if slack < 32<<20 {
		slack = 32 << 20
	}
	if !raceEnabled && highLong > highShort+slack {
		t.Errorf("heap high-water grew with log length: %d MiB (short) -> %d MiB (long)",
			highShort>>20, highLong>>20)
	}
}
