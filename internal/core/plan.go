package core

import (
	"runtime"
	"time"

	"smartsra/internal/plan"
)

// WithPlan returns a copy of c with the execution knobs set from p. The
// plan never changes output — any {Workers, StreamDepth, StreamChunkBytes}
// is byte-identical to sequential — so applying one is purely a
// throughput/memory decision.
func (c Config) WithPlan(p plan.Plan) Config {
	c.Workers = p.Workers
	c.StreamDepth = p.StreamDepth
	c.StreamChunkBytes = p.ChunkBytes
	c.BatchRecords = p.Batch
	return c
}

// NewSessionizer builds the streaming processor a plan calls for: a Tail
// with the plan's shard count. shards <= 0 means one shard per core
// (GOMAXPROCS) when the Tail will be fed or drained concurrently, and a
// single shard otherwise. Output is byte-identical for any shard count.
func NewSessionizer(cfg Config, rho time.Duration, shards int, concurrent bool) (*Tail, error) {
	if shards <= 0 {
		shards = 1
		if concurrent {
			shards = runtime.GOMAXPROCS(0)
		}
	}
	return newTail(cfg, rho, shards)
}
