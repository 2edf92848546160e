// Package plan is the adaptive execution planner: it sizes the ingestion
// knobs — parse workers, sessionizer shards, stream depth, chunk bytes —
// from the machine (GOMAXPROCS), the input (size and kind), and an optional
// observed-throughput calibration probe, and falls back to one parse worker
// and a single Tail whenever parallelism cannot win. core.Run executes the
// plan: one parse worker reads files through clf.StreamFilesChunked's
// inline chunk loop, and pipes (Batch 1) through the line-at-a-time
// clf.Stream.
//
// The motivating inversion is in the committed 1-core benchmarks:
// BENCH_ingest.json records parse_speedup 0.80 and BENCH_stream.json
// stream_speedup 0.58 — chunk fan-out costs real scheduling and memory
// traffic, so on small machines (or small inputs, or bursty heavy-tailed
// traffic) the parallel readers lose to the sequential scanner and the
// operator previously had to guess -workers/-shards/-stream-depth to avoid
// the regression. The planner makes that call instead.
//
// Every plan is a pure performance decision: the parallel paths are
// byte-identical to the sequential ones for any {workers, shards, depth,
// chunk} (pinned by the golden-corpus equivalence harness), so a plan can
// never change output — only throughput and memory.
package plan

import (
	"fmt"
	"os"
	"runtime"
	"strconv"

	"smartsra/internal/clf"
)

// Kind classifies the input the plan is for.
type Kind int

const (
	// KindFile is a seekable regular file of known size.
	KindFile Kind = iota
	// KindPipe is a pipe, FIFO, socket, or terminal: size unknown, possibly
	// endless.
	KindPipe
	// KindLive is live traffic pushed record by record from concurrent
	// producers (the serve request path).
	KindLive
	// KindGzip is a gzip-compressed file (or set containing one): size on
	// disk understates the bytes to parse, and the decode stage is
	// sequential per member.
	KindGzip
)

func (k Kind) String() string {
	switch k {
	case KindFile:
		return "file"
	case KindPipe:
		return "pipe"
	case KindLive:
		return "live"
	case KindGzip:
		return "gzip"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// GzipExpansion is the planner's estimate of how much larger a gzip log is
// decoded than on disk. Access logs are highly repetitive text; 4x is
// conservative (DEFLATE typically does better on CLF), and the estimate only
// steers chunk sizing, never correctness.
const GzipExpansion = 4

// Input describes one workload for the planner.
type Input struct {
	// Cores is the schedulable parallelism; <= 0 means runtime.GOMAXPROCS.
	Cores int
	// SizeBytes is the number of input bytes still to read; < 0 when
	// unknown (pipes, live traffic).
	SizeBytes int64
	// Kind is the input's shape.
	Kind Kind
	// Feeders is how many goroutines will push records concurrently into
	// the sessionizer. <= 0 means the kind's default: 1 for files and
	// pipes (the in-order delivery goroutine), 2x cores for live traffic
	// (concurrent request handlers).
	Feeders int
	// Files is how many files make up the input (a rotated set); <= 1
	// means a single stream. For KindGzip sets, more files mean more
	// decode-ahead overlap.
	Files int
}

func (in Input) cores() int {
	if in.Cores > 0 {
		return in.Cores
	}
	return runtime.GOMAXPROCS(0)
}

func (in Input) feeders() int {
	if in.Feeders > 0 {
		return in.Feeders
	}
	if in.Kind == KindLive {
		return 2 * in.cores()
	}
	return 1
}

// Plan is the execution configuration the planner chose. Zero is not a
// valid plan; obtain one from Decide, DecideCalibrated, or Resolve.
type Plan struct {
	// Workers is the parse-stage goroutine count; 1 means the sequential
	// scanner.
	Workers int
	// Shards is the sessionizer shard count; 1 means a single Tail's worth
	// of state (use a lock-striped ShardedTail only when feeders contend).
	Shards int
	// StreamDepth is the in-order delivery channel depth for the parallel
	// reader (inert when Workers == 1).
	StreamDepth int
	// ChunkBytes is the line-aligned parse chunk size (inert when
	// Workers == 1).
	ChunkBytes int
	// Batch is the sessionizer delivery granularity (core.Config's
	// BatchRecords): 1 pushes record-at-a-time — the low-latency choice for
	// pipes and live traffic, where a batch would sit waiting for a chunk to
	// fill (on one worker core.Run then reads a pipe line by line) — and 0
	// hands each parsed chunk to PushBatch whole, paying the shard lock and
	// metrics flush once per chunk instead of once per record. Never
	// changes the emitted sessions, only when they surface.
	Batch int
	// Sequential reports that the parse stage should run on one worker:
	// parallelism cannot win on this input.
	Sequential bool
	// Mmap reports that plain-file input will be served as memory-mapped
	// zero-copy windows (informational: clf.StreamFilesChunked selects the
	// source per file; this records the expectation for logs and
	// benchmarks).
	Mmap bool
	// Reason is the one-line human explanation logged at startup.
	Reason string
}

func (p Plan) String() string {
	mode := "parallel"
	if p.Sequential {
		mode = "sequential"
	}
	if p.Mmap {
		mode += "+mmap"
	}
	batch := "chunk"
	if p.Batch == 1 {
		batch = "1"
	}
	return fmt.Sprintf("%s: workers=%d shards=%d depth=%d chunk=%s batch=%s — %s",
		mode, p.Workers, p.Shards, p.StreamDepth, fmtBytes(int64(p.ChunkBytes)), batch, p.Reason)
}

const (
	// DefaultChunkBytes matches the clf reader's ~1 MiB line-aligned chunk.
	DefaultChunkBytes = 1 << 20
	// MinChunkBytes is the smallest chunk worth dispatching: below this the
	// per-chunk channel and goroutine traffic dominates the parse work.
	MinChunkBytes = 64 << 10
	// MinParallelBytes is the smallest known input worth fanning out at
	// all: under a handful of chunks, pipeline start-up and the in-order
	// merge eat the win.
	MinParallelBytes = 4 << 20
	// minStreamDepth / maxStreamDepth bound the in-order channel: deep
	// enough to ride out a slow chunk, shallow enough that heap stays a
	// few dozen chunks.
	minStreamDepth = 8
	maxStreamDepth = 32
)

// Decide sizes the execution for in without measuring anything: a pure,
// deterministic decision table over cores x input-size x kind. Use
// DecideCalibrated when a sample of the input is cheaply available.
func Decide(in Input) Plan {
	cores := in.cores()
	feeders := in.feeders()
	p := Plan{
		Workers:     1,
		Shards:      1,
		StreamDepth: minStreamDepth,
		ChunkBytes:  DefaultChunkBytes,
		Sequential:  true,
		// Plain files stream as zero-copy mmap windows when the build
		// supports it — a per-source decision that holds for sequential
		// plans too (the direct loop slices windows without goroutines).
		Mmap: in.Kind == KindFile && clf.MmapSupported,
	}
	// Batched sessionizer delivery is a pure throughput win on bounded
	// inputs, but a pipe or live stream may dribble: a batch would sit
	// waiting for its chunk to fill while the operator watches nothing
	// happen, so interactive kinds deliver record-at-a-time.
	if in.Kind == KindPipe || in.Kind == KindLive {
		p.Batch = 1
	}
	// Gzip sizes on disk understate the parse work; plan against the
	// estimated decoded size so a 2 MiB .gz (≈ 8 MiB of lines) still fans
	// out. The estimate steers sizing only — never correctness.
	size := in.SizeBytes
	if in.Kind == KindGzip && size >= 0 {
		size *= GzipExpansion
	}
	// Shards stripe feeder contention, which needs both real parallelism
	// and more than one pusher; a single delivery goroutine gains nothing
	// from extra locked shards (the committed tail_speedup 0.97 is that
	// overhead, measured).
	if cores > 1 && feeders > 1 {
		p.Shards = cores
		if feeders < p.Shards {
			p.Shards = feeders
		}
	}
	if cores == 1 {
		p.Reason = "1 core: chunk fan-out cannot outrun the sequential scanner"
		return p
	}
	if in.Kind == KindLive {
		// Live records arrive one at a time from the handlers; there is no
		// byte stream to chunk-parallelize.
		p.Reason = fmt.Sprintf("live traffic on %d cores: per-record pushes, %d-way shard striping", cores, p.Shards)
		return p
	}
	if size >= 0 && size < MinParallelBytes {
		p.Reason = fmt.Sprintf("input %s < %s: fan-out start-up would dominate", fmtBytes(size), fmtBytes(MinParallelBytes))
		return p
	}

	// Parallel parse. Size chunks so every worker sees several, shrinking
	// them (never below MinChunkBytes) when the input is only a few MiB.
	workers := cores
	chunk := DefaultChunkBytes
	if size >= 0 {
		if per := size / int64(4*workers); per < int64(chunk) {
			chunk = int(per)
			if chunk < MinChunkBytes {
				chunk = MinChunkBytes
			}
		}
		if n := chunkCount(size, chunk); n < workers {
			workers = n
		}
	}
	if workers <= 1 {
		p.Reason = fmt.Sprintf("input %s fits one chunk: nothing to fan out", fmtBytes(size))
		return p
	}
	p.Workers = workers
	p.ChunkBytes = chunk
	p.StreamDepth = clampInt(2*workers, minStreamDepth, maxStreamDepth)
	p.Sequential = false
	switch {
	case in.Kind == KindGzip:
		p.Reason = fmt.Sprintf("%d cores, %s gzip (≈%s decoded) in %s chunks", cores, fmtBytes(in.SizeBytes), fmtBytes(size), fmtBytes(int64(chunk)))
	case size >= 0:
		p.Reason = fmt.Sprintf("%d cores, %s in %s chunks", cores, fmtBytes(size), fmtBytes(int64(chunk)))
	default:
		p.Reason = fmt.Sprintf("%d cores, unbounded %s input", cores, in.Kind)
	}
	if in.Files > 1 {
		p.Reason += fmt.Sprintf(" across %d files", in.Files)
	}
	return p
}

// sequentialFallback converts p into its sequential equivalent, keeping the
// shard decision (shards answer feeder contention, not parse speed).
func (p Plan) sequentialFallback(reason string) Plan {
	p.Workers = 1
	p.Sequential = true
	p.Reason = reason
	return p
}

// ClampWorkers bounds an explicit worker request to what the machine and
// input can use: parse workers are CPU-bound, so beyond GOMAXPROCS they are
// idle goroutines, and beyond one per chunk they never receive work. It
// reports whether the request was reduced.
func ClampWorkers(req int, in Input) (int, bool) {
	eff := req
	if c := in.cores(); eff > c {
		eff = c
	}
	if in.SizeBytes >= 0 {
		if n := chunkCount(in.SizeBytes, DefaultChunkBytes); eff > n {
			eff = n
		}
	}
	if eff < 1 {
		eff = 1
	}
	return eff, eff < req
}

// ClampShards bounds an explicit shard request: lock striping stops paying
// past ~2 shards per core, and every extra shard is an idle map plus a
// mutex visited by every Flush/Expire merge. It reports whether the request
// was reduced.
func ClampShards(req int, in Input) (int, bool) {
	eff := req
	if max := 2 * in.cores(); eff > max {
		eff = max
	}
	if eff < 1 {
		eff = 1
	}
	return eff, eff < req
}

// Knob is one parsed execution flag: either an explicit integer (with the
// legacy conventions, 0 sequential / -1 all cores, interpreted by Resolve)
// or a request for the planner's choice.
type Knob struct {
	N    int
	Auto bool
}

// Auto is the planner-chooses knob value.
var Auto = Knob{Auto: true}

// ParseKnob interprets an execution-knob flag value: "auto" (or "") asks
// the planner, anything else must be an integer.
func ParseKnob(name, s string) (Knob, error) {
	if s == "" || s == "auto" {
		return Knob{Auto: true}, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return Knob{}, fmt.Errorf("-%s: want \"auto\" or an integer, got %q", name, s)
	}
	return Knob{N: n}, nil
}

// ParseBatchKnob is ParseKnob for -batch, which accepts only the two
// deliveries the planner chooses between: "auto", 0 (whole chunks) or 1
// (record at a time).
func ParseBatchKnob(s string) (Knob, error) {
	k, err := ParseKnob("batch", s)
	if err == nil && !k.Auto && k.N != 0 && k.N != 1 {
		err = fmt.Errorf("-batch: want \"auto\", 0 or 1, got %q", s)
	}
	return k, err
}

// Resolve produces the effective plan for in: the auto plan (calibrated
// against sample when one is provided), with any explicit knobs overriding
// the planner's choice — clamped to what the input and machine can use. The
// returned notes describe every clamp applied, for the one-line startup log.
//
// Explicit knob conventions match the historical integer flags: workers 0
// means sequential, workers/shards < 0 mean all cores, depth <= 0 means the
// default. For batch, 1 means record-at-a-time and any other value
// whole-chunk delivery.
func Resolve(in Input, workers, shards, depth, batch Knob, sample []byte) (Plan, []string) {
	var p Plan
	if workers.Auto {
		p = DecideCalibrated(in, sample)
	} else {
		// An explicit worker count skips the probe: the operator decided.
		p = Decide(in)
	}
	var notes []string
	if !workers.Auto {
		w := workers.N
		switch {
		case w < 0:
			w = in.cores()
		case w == 0:
			w = 1
		}
		eff, clamped := ClampWorkers(w, in)
		if clamped {
			notes = append(notes, fmt.Sprintf("-workers %d exceeds usable parallelism, clamped to %d", workers.N, eff))
		}
		p.Workers = eff
		p.Sequential = eff == 1
		p.Reason = fmt.Sprintf("explicit -workers %d", workers.N)
		if p.Sequential {
			p.ChunkBytes = DefaultChunkBytes
		} else if p.StreamDepth < minStreamDepth {
			p.StreamDepth = clampInt(2*eff, minStreamDepth, maxStreamDepth)
		}
	}
	if !shards.Auto {
		s := shards.N
		if s <= 0 {
			s = in.cores()
		}
		eff, clamped := ClampShards(s, in)
		if clamped {
			notes = append(notes, fmt.Sprintf("-shards %d exceeds usable lock striping, clamped to %d", shards.N, eff))
		}
		p.Shards = eff
	}
	if !depth.Auto {
		d := depth.N
		if d <= 0 {
			d = minStreamDepth
		}
		p.StreamDepth = d
	}
	if !batch.Auto {
		p.Batch = batch.N
	}
	return p, notes
}

// Stat classifies an already-open input for planning: a regular file
// becomes KindFile with its remaining (unread) size, anything else is
// KindPipe with unknown size.
func Stat(f *os.File) Input {
	in := Input{SizeBytes: -1, Kind: KindPipe}
	if f == nil {
		return in
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return in
	}
	in.Kind = KindFile
	in.SizeBytes = fi.Size()
	if off, err := f.Seek(0, 1); err == nil && off > 0 && off <= fi.Size() {
		in.SizeBytes = fi.Size() - off
	}
	return in
}

// StatPaths classifies a resolved input set on disk (for replay planning
// before the files are opened): total on-disk size, KindGzip when any member
// is compressed (sniffed by magic bytes), and the file count for the plan's
// decode-ahead reasoning. Any missing or irregular member degrades the whole
// set to an unknown-size pipe plan (correct, just unsized).
func StatPaths(paths []string) Input {
	in := Input{SizeBytes: -1, Kind: KindPipe, Files: len(paths)}
	if len(paths) == 0 {
		return in
	}
	var total int64
	kind := KindFile
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil || !fi.Mode().IsRegular() {
			return in
		}
		total += fi.Size()
		if clf.IsGzipFile(path) {
			kind = KindGzip
		}
	}
	in.SizeBytes = total
	in.Kind = kind
	return in
}

// chunkCount is how many chunks of size chunk cover size bytes.
func chunkCount(size int64, chunk int) int {
	if size <= 0 {
		return 1
	}
	n := (size + int64(chunk) - 1) / int64(chunk)
	return int(n)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fmtBytes renders a byte count compactly (KiB/MiB/GiB).
func fmtBytes(n int64) string {
	switch {
	case n < 0:
		return "?"
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
