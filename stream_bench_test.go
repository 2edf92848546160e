package smartsra

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/core"
)

// BenchmarkStreamIngest measures the bounded-memory streaming path:
// sequential Stream vs the chunk-parallel StreamChunked reader (whose
// intern arena is what pushes allocs/record toward zero), and the
// end-to-end pipeline — core.Run feeding a ShardedTail from the chunked
// reader — that cmd/sessionize -stream and cmd/serve -backfill run. The
// records/s metric is the headline; output equivalence with the batch
// readers is pinned by TestGoldenCorpusStream and FuzzStreamChunks.
func BenchmarkStreamIngest(b *testing.B) {
	g, records, data := ingestWorkload(b)
	recs := float64(len(records))

	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := clf.Stream(bytes.NewReader(data), func(clf.Record) {}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("stream-parallel/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := clf.StreamChunked(bytes.NewReader(data), workers, 0, 0, func([]clf.Record) {}, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
	}
	b.Run("ingest-sharded", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st, err := core.NewShardedTail(core.Config{Graph: g, Workers: -1}, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Run(st, core.Input{Reader: bytes.NewReader(data)}, core.RunOptions{}); err != nil {
				b.Fatal(err)
			}
			st.Flush()
		}
		b.ReportMetric(recs*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
