package smartsra

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/simulator"
	"smartsra/internal/webgraph"
)

// ingestWorkload renders one Table 5-scale simulated run as a CLF log.
func ingestWorkload(b *testing.B) (*webgraph.Graph, []clf.Record, []byte) {
	b.Helper()
	params := simulator.PaperParams()
	params.Agents = 500
	g, res := benchWorkload(b, webgraph.PaperTopology(), params)
	records := res.Log(g)
	var buf bytes.Buffer
	if err := clf.WriteAll(&buf, records); err != nil {
		b.Fatal(err)
	}
	return g, records, buf.Bytes()
}

// BenchmarkIngest measures the streaming ingestion layer: CLF parse
// throughput (legacy per-line-string path, []byte fast path, chunk-parallel
// reader) and Tail vs concurrently-fed ShardedTail sessionization. The
// records/s metric is the headline; allocs/op shows the parse path's
// allocation reduction. On >=4 cores the parallel and sharded variants
// should show a >=2x records/s win over their sequential baselines while
// producing identical output (pinned by TestReadAllParallelMatchesReadAll
// and TestShardedTailEquivalentToTail under -race).
func BenchmarkIngest(b *testing.B) {
	g, records, data := ingestWorkload(b)
	recs := float64(len(records))

	b.Run("parse-string", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			sc := bufio.NewScanner(bytes.NewReader(data))
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			for sc.Scan() {
				line := sc.Text()
				if len(line) > 0 {
					clf.ParseAnyRecord(line)
				}
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("parse-bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, _, err := clf.ReadAll(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parse-parallel/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				var all []clf.Record
				if _, err := clf.StreamChunked(bytes.NewReader(data), workers, 4*workers, 0, func(recs []clf.Record) {
					all = append(all, recs...)
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}

	b.Run("tail", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tl, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			for _, rec := range records {
				tl.Push(rec)
			}
			tl.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("tail-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tl, err := core.NewTail(core.Config{Graph: g}, 0)
			if err != nil {
				b.Fatal(err)
			}
			for off := 0; off < len(records); off += 8192 {
				end := off + 8192
				if end > len(records) {
					end = len(records)
				}
				tl.PushBatch(records[off:end])
			}
			tl.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	b.Run("sharded-tail", func(b *testing.B) {
		// Partition records by user across feeders so each user's arrival
		// order is preserved (the determinism contract's requirement).
		feeders := runtime.GOMAXPROCS(0)
		if feeders < 2 {
			feeders = 2
		}
		feeds := make([][]clf.Record, feeders)
		for _, rec := range records {
			h := uint32(2166136261)
			for i := 0; i < len(rec.Host); i++ {
				h = (h ^ uint32(rec.Host[i])) * 16777619
			}
			feeds[h%uint32(feeders)] = append(feeds[h%uint32(feeders)], rec)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := core.NewShardedTail(core.Config{Graph: g}, 0, 0)
			if err != nil {
				b.Fatal(err)
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
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}

// BenchmarkTailPush is the sessionizer hot path record-at-a-time: the
// baseline the batched path is gated against (batch >= single, enforced by
// cmd/benchgate on ingest_batch_speedup).
func BenchmarkTailPush(b *testing.B) {
	g, records, _ := ingestWorkload(b)
	recs := float64(len(records))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range records {
			tl.Push(rec)
		}
		tl.Flush()
	}
	b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkTailPushBatch is the same workload through the batched hot path:
// one metrics flush per 8192-record batch on a Tail, and one lock
// acquisition per touched shard per batch on a ShardedTail.
func BenchmarkTailPushBatch(b *testing.B) {
	g, records, _ := ingestWorkload(b)
	recs := float64(len(records))
	const batch = 8192
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := core.NewShardedTail(core.Config{Graph: g}, 0, shards)
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(records); off += batch {
					end := off + batch
					if end > len(records) {
						end = len(records)
					}
					st.PushBatch(records[off:end])
				}
				st.Flush()
			}
			b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
