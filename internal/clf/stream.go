package clf

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultStreamDepth is the default depth of the chunked readers' in-order
// delivery channel: how many parsed chunks may be in flight between the
// reader and the consumer before the reader blocks. Together with the worker
// count it bounds the pipeline's heap: roughly
// (depth + workers) × chunk size of input bytes plus the records parsed from
// them, independent of how long the log is.
const DefaultStreamDepth = 8

// readChunkSize is the target size of one line-aligned parse chunk. Chunks
// are extended to the next newline, so lines never straddle workers.
const readChunkSize = 1 << 20

// maxLineBytes mirrors the Scanner's 1 MiB line cap: a "line" that exceeds
// it is a defect (or an attack), and every reader fails the same way.
const maxLineBytes = 1 << 20

// Stream parses every record in r in input order, invoking emit for each,
// and returns the malformed-line count. It is ReadAll without the slice:
// memory is bounded by one line, and each record is emitted as soon as its
// line arrives, so it suits interactive pipes and logs that never end.
// Records parsed before a read error are emitted before the error returns.
func Stream(r io.Reader, emit func(Record)) (malformed int, err error) {
	sc := NewScanner(r)
	for sc.Scan() {
		emit(sc.Record())
	}
	malformed, _ = sc.Malformed()
	if err := sc.Err(); err != nil {
		return malformed, fmt.Errorf("clf: read: %w", err)
	}
	return malformed, nil
}

// StreamChunked parses r with the parse stage fanned out over a bounded
// worker pool: the input is cut into line-aligned chunks of about chunkBytes
// (<= 0 means ~1 MiB), chunks are parsed concurrently through the
// byte-level fast path, and each chunk's records are delivered to emitChunk
// as one slice, in input order, through a channel of fixed depth (<= 0 means
// DefaultStreamDepth). For any workers/depth/chunk size the delivered
// sequence and malformed count are identical to Stream's (and ReadAll's),
// and nothing is materialized: heap stays bounded by (depth + workers)
// chunks regardless of log length. workers <= 0 means GOMAXPROCS;
// workers == 1 parses inline on the calling goroutine.
//
// The slice is only valid during the call; emitChunk must not retain it
// (the sequential path reuses one scratch slice for every chunk). After each
// chunk, progress (if non-nil) receives the line-aligned position just past
// it — file 0, offset relative to the start of r — so a reader that seeks
// there and resumes sees exactly the records not yet delivered; a non-nil
// error from progress aborts the stream and is returned. Note the latency
// trade: records are delivered only when a chunk fills or the input ends,
// so callers tailing an interactive pipe should use Stream.
func StreamChunked(r io.Reader, workers, depth, chunkBytes int, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	src := newReaderSource(r, SourceReader, 0) // no closers: r is borrowed
	open := func(int) (Source, error) { return src, nil }
	return streamSources(1, 0, open, workers, depth, chunkBytes, emitChunk, progress)
}

// StreamConfig tunes StreamFilesChunked. Zero values mean: GOMAXPROCS
// workers, DefaultStreamDepth, ~1 MiB chunks, start at the first byte of
// the first file, mmap allowed.
type StreamConfig struct {
	// Workers is the parse fan-out; <= 0 means GOMAXPROCS. Workers == 1
	// runs a direct sequential loop with no pipeline goroutines at all.
	Workers int
	// Depth bounds in-flight parsed chunks; <= 0 means DefaultStreamDepth.
	Depth int
	// ChunkBytes is the target chunk size; <= 0 means ~1 MiB.
	ChunkBytes int
	// Start is the resume position: files before Start.File are skipped and
	// Start.File begins at Start.Offset (a line boundary previously reported
	// through progress; decoded bytes for gzip members).
	Start FilePos
	// NoMmap forces the buffered reader for plain files (benchmarks and
	// equivalence tests; gzip always decodes through the buffered path).
	NoMmap bool
}

// StreamFilesChunked streams the records of an ordered multi-file log set —
// plain, gzip, or mixed, as a rotated retention window produces — in input
// order through the same bounded pipeline as StreamChunked, with the same
// chunk-slice delivery contract. Each file is opened as the best Source for
// its content: mmap windows for plain files (chunks alias the mapping; no
// line is ever copied between read and parse), the buffered reader for
// pipes or when mmap is unavailable, gzip decoding for compressed members —
// with upcoming gzip members decoded ahead on their own goroutines so
// decompression overlaps parsing when workers > 1.
//
// Files are independent record streams: a final line without a trailing
// newline still parses, exactly as if the files were concatenated with
// newline separators (OpenLogInput's batch view). After each chunk's records
// are delivered, progress (if non-nil) receives the line-aligned FilePos
// just past the chunk; a non-nil error from progress aborts the stream and
// is returned, which checkpointing consumers use to stop cleanly mid-set.
// Over-long lines (> 1 MiB) are skipped and counted as malformed.
func StreamFilesChunked(paths []string, cfg StreamConfig, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	first := cfg.Start.File
	if first < 0 {
		first = 0
	}
	if first >= len(paths) {
		return 0, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunkBytes := cfg.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}

	// Decode-ahead: when the pool is parsing file i, up to lookahead of the
	// next gzip members decompress concurrently on their own goroutines.
	lookahead := 0
	if workers > 1 {
		lookahead = workers - 1
		if lookahead > 4 {
			lookahead = 4
		}
	}
	ahead := make(map[int]Source)
	defer func() {
		// Close prefetched sources never consumed (early abort or error).
		for _, s := range ahead {
			s.Close()
		}
	}()
	open := func(i int) (Source, error) {
		s, ok := ahead[i]
		if !ok {
			var off int64
			if i == cfg.Start.File {
				off = cfg.Start.Offset
			}
			var err error
			if s, err = openSourceAt(paths[i], off, cfg.NoMmap); err != nil {
				return nil, err
			}
		}
		delete(ahead, i)
		for k := i + 1; k <= i+lookahead && k < len(paths); k++ {
			if _, ok := ahead[k]; ok {
				continue
			}
			ns, err := openSourceAt(paths[k], 0, cfg.NoMmap)
			if err != nil {
				break // the open(k) that matters will report it
			}
			if ns.Kind() == SourceGzip {
				ns = newAsyncSource(ns, chunkBytes)
			}
			ahead[k] = ns
		}
		return s, nil
	}
	return streamSources(len(paths), first, open, workers, cfg.Depth, chunkBytes, emitChunk, progress)
}

// parsedChunk is one chunk's parse result.
type parsedChunk struct {
	recs []Record
	bad  int
}

// sourceJob carries one line-aligned chunk through the pipeline. done is
// 1-buffered so a worker never blocks handing its result back. A job with
// closer set is a close sentinel: it follows every data job of its source
// through the FIFO order channel, so by the time the consumer reaches it all
// of that source's chunks have been fully parsed and the source — possibly
// an mmap whose windows those chunks aliased — is safe to close.
type sourceJob struct {
	data    []byte
	pos     FilePos
	skipped int
	done    chan parsedChunk
	closer  Source
}

// streamSources runs the parse pipeline over n ordered sources, opened
// lazily by open, starting at index first, delivering each chunk's records
// as one slice.
//
// Shape: one producer goroutine pulls line-aligned chunks from each source
// in turn and sends each job to both the workers (via work) and the consumer
// (via order, whose fixed buffer is the backpressure bound); the calling
// goroutine drains order in FIFO — input order — waiting on each job's own
// done channel, so delivery order never depends on worker scheduling.
// workers == 1 skips the goroutines entirely and parses inline.
func streamSources(n, first int, open func(int) (Source, error), workers, depth, chunkBytes int, emitChunk func([]Record), progress func(FilePos) error) (malformed int, err error) {
	records := 0
	defer func() {
		metricRecords.Add(int64(records))
		metricMalformed.Add(int64(malformed))
	}()

	if workers == 1 {
		// Direct sequential loop: source → parseChunkIntern → emitChunk, no
		// pipeline. This is the mmap fast path on one core — no goroutine
		// handoffs, no chunk copies, one scratch record slice reused for
		// every chunk, just window slicing and the byte-level parser.
		// One scratch record slice serves every chunk; sizing it for a full
		// chunk of minimal lines up front replaces the per-stream append
		// growth ladder (records are ~170 B, so the ladder's copies and
		// garbage dwarf one right-sized allocation).
		scratch := make([]Record, 0, chunkBytes/48+1)
		in := newInternTable()
		for i := first; i < n; i++ {
			src, err := open(i)
			if err != nil {
				return malformed, err
			}
			if rs, ok := src.(interface{ markSerial() }); ok {
				// This loop consumes each chunk before pulling the next, so
				// reader-backed sources can hand out their read buffer
				// directly (zero-copy, like the mmap windows).
				rs.markSerial()
			}
			for {
				data, end, skipped, nerr := src.NextChunk(chunkBytes)
				if nerr != nil {
					cerr := src.Close()
					if nerr != io.EOF {
						return malformed, nerr
					}
					if cerr != nil {
						return malformed, cerr
					}
					break
				}
				malformed += skipped
				var bad int
				if in.full() {
					in = newInternTable()
				}
				scratch, bad = parseChunkIntern(data, scratch[:0], in)
				records += len(scratch)
				malformed += bad
				if len(scratch) > 0 {
					emitChunk(scratch)
				}
				if progress != nil {
					if perr := progress(FilePos{File: i, Offset: end}); perr != nil {
						src.Close()
						return malformed, perr
					}
				}
			}
		}
		return malformed, nil
	}

	if depth <= 0 {
		depth = DefaultStreamDepth
	}
	work := make(chan *sourceJob)
	order := make(chan *sourceJob, depth)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker persistent intern: strings repeat across this
			// worker's chunks, and the table is retired at maxInternEntries.
			in := newInternTable()
			for j := range work {
				if in.full() {
					in = newInternTable()
				}
				// Records are pointer-heavy (five strings each), so an
				// append-grown slice pays repeated copy + write-barrier
				// bills; size it once from the shortest plausible line.
				recs, bad := parseChunkIntern(j.data, make([]Record, 0, len(j.data)/48+1), in)
				j.done <- parsedChunk{recs: recs, bad: bad}
			}
		}()
	}

	// aborted is set by the consumer when progress rejects; the producer
	// stops cutting chunks, and the consumer keeps draining (without
	// emitting) so every in-flight job completes and every source closes.
	var aborted atomic.Bool
	var readErr error
	go func() {
		defer close(order)
		defer close(work)
		for i := first; i < n && !aborted.Load(); i++ {
			src, err := open(i)
			if err != nil {
				readErr = err
				return
			}
			for {
				data, end, skipped, nerr := src.NextChunk(chunkBytes)
				if nerr != nil {
					if nerr != io.EOF {
						readErr = nerr
					}
					break
				}
				j := &sourceJob{data: data, pos: FilePos{File: i, Offset: end}, skipped: skipped, done: make(chan parsedChunk, 1)}
				// Sending to order before work keeps the consumer's view
				// strictly FIFO and makes the order buffer the admission gate.
				order <- j
				if len(data) > 0 {
					work <- j
				} else {
					j.done <- parsedChunk{} // skip-count-only progress job
				}
				if aborted.Load() {
					break
				}
			}
			// The sentinel trails this source's jobs through the FIFO, so the
			// consumer closes it only after the workers are done with it.
			order <- &sourceJob{closer: src}
			if readErr != nil {
				return
			}
		}
	}()

	var progErr, closeErr error
	for j := range order {
		if j.closer != nil {
			if cerr := j.closer.Close(); cerr != nil && closeErr == nil {
				closeErr = cerr
			}
			continue
		}
		res := <-j.done
		if progErr != nil {
			continue // draining after abort
		}
		if len(res.recs) > 0 {
			emitChunk(res.recs)
		}
		records += len(res.recs)
		malformed += res.bad + j.skipped
		if progress != nil {
			if perr := progress(j.pos); perr != nil {
				progErr = perr
				aborted.Store(true)
			}
		}
	}
	wg.Wait()
	// order is closed only after readErr is set, so this read is ordered.
	switch {
	case progErr != nil:
		return malformed, progErr
	case readErr != nil:
		return malformed, readErr
	case closeErr != nil:
		return malformed, closeErr
	}
	return malformed, nil
}

// parseChunkIntern parses every line of one chunk (the final line may lack
// a trailing newline) into the caller-provided slice, skipping blank lines
// and counting malformed ones, mirroring the Scanner's accounting —
// including the over-long-line policy: a line past the 1 MiB cap (possible
// when a Source serves windows larger than the cap, e.g. an mmap window
// grown around a huge line) is counted and skipped, exactly as the
// sequential lineScanner does. Strings are interned through the caller's
// table, which the caller retires via full() — parsing never grows it past
// the next chunk's distinct strings.
func parseChunkIntern(data []byte, recs []Record, in *internTable) ([]Record, int) {
	bad := 0
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			line, data = data[:nl], data[nl+1:]
		} else {
			line, data = data, nil
		}
		if len(line) > maxLineBytes {
			bad++
			continue
		}
		if isBlankBytes(line) {
			continue
		}
		rec, _, err := parseAnyRecordBytesIn(line, in)
		if err != nil {
			bad++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, bad
}
