package clf

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sync"
)

// SourceKind identifies how a Source feeds bytes to the parse pipeline.
type SourceKind int

const (
	// SourceReader is the buffered io.Reader path: blocks are read into a
	// scratch buffer and cut at line boundaries (pipes, sockets, stdin, and
	// files when mmap is unavailable or disabled).
	SourceReader SourceKind = iota
	// SourceMmap serves line-aligned windows of a memory-mapped file:
	// chunks alias the mapping, so neither the splitter nor the parser ever
	// copies a line.
	SourceMmap
	// SourceGzip is the buffered path behind a gzip decoder, selected by
	// sniffing the 0x1f 0x8b magic bytes.
	SourceGzip
)

func (k SourceKind) String() string {
	switch k {
	case SourceMmap:
		return "mmap"
	case SourceGzip:
		return "gzip"
	default:
		return "reader"
	}
}

// FilePos addresses a byte position within an ordered multi-file input set:
// File indexes the (lexically ordered) path list, Offset is the byte offset
// within that file — for gzip members it counts decoded bytes. The chunked
// readers only report positions on line boundaries, so a resume from any
// reported FilePos replays exactly the records not yet emitted.
type FilePos struct {
	File   int
	Offset int64
}

// A Source produces line-aligned chunks of log bytes for the parse pipeline.
//
// NextChunk returns the next chunk of at least one complete line (the final
// chunk of a source may lack its trailing newline), the absolute byte offset
// within this source just past the consumed input (always a line boundary),
// and how many over-long lines (> 1 MiB) were skipped and dropped while
// producing it. A return with err != nil carries no data: io.EOF signals a
// clean end of input. The chunk is owned by the caller until the Source is
// closed — mmap chunks alias the mapping, so Close must not run before the
// chunk's consumers finish.
type Source interface {
	NextChunk(chunkBytes int) (chunk []byte, end int64, skipped int, err error)
	Kind() SourceKind
	Close() error
}

// readerSource cuts an io.Reader into line-aligned chunks, porting the
// chunk-producer loop that previously lived inside streamParallel. Over-long
// lines are skipped and counted (never buffered whole), matching the
// sequential lineScanner's policy.
type readerSource struct {
	r       io.Reader
	kind    SourceKind
	closers []io.Closer

	buf         []byte
	carry       []byte // unterminated tail of the previous block (own backing)
	joined      []byte // serial mode's small carry-stitching buffer
	pendingData []byte // serial mode: rest of the block after a stitched chunk
	pos         int64  // absolute offset of the first byte of carry
	serial      bool   // caller consumes each chunk before the next NextChunk
	skipping    bool   // inside an over-long line; carry is empty
	pending     int    // skipped lines not yet reported
	rerr        error  // sticky terminal result
}

// markSerial declares that the caller fully consumes every returned chunk
// before calling NextChunk again (the workers == 1 direct parse loop). Serial
// chunks alias the read buffer itself — zero-copy, like the mmap source —
// with only a carried partial line stitched through a small side buffer.
// Must not be set when chunks stay in flight concurrently (the worker-pool
// path, asyncSource prefetch).
func (s *readerSource) markSerial() { s.serial = true }

func newReaderSource(r io.Reader, kind SourceKind, pos int64, closers ...io.Closer) *readerSource {
	return &readerSource{r: r, kind: kind, pos: pos, closers: closers}
}

func (s *readerSource) Kind() SourceKind { return s.kind }

func (s *readerSource) Close() error {
	var first error
	for _, c := range s.closers {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

func (s *readerSource) NextChunk(chunkBytes int) ([]byte, int64, int, error) {
	if out := s.pendingData; len(out) > 0 {
		// Serial mode: the remainder of the last read block, delayed so the
		// carry-stitched front could ship first. Delivered before any error
		// report — pre-split it was part of the same returned chunk.
		s.pendingData = nil
		s.pos += int64(len(out))
		end, skipped := s.pos, s.pending
		s.pending = 0
		return out, end, skipped, nil
	}
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	if len(s.buf) != chunkBytes {
		s.buf = make([]byte, chunkBytes)
	}
	for s.rerr == nil {
		n, rerr := io.ReadFull(s.r, s.buf)
		out := s.consume(s.buf[:n])
		if rerr != nil {
			// Record the block's terminal condition; any chunk cut from the
			// block is still delivered first.
			s.stop(rerr)
		}
		if out != nil {
			end, skipped := s.pos, s.pending
			s.pending = 0
			return out, end, skipped, nil
		}
	}
	if s.rerr == io.EOF {
		// Flush the final unterminated line on clean EOF.
		if len(s.carry) > 0 {
			out := s.carry
			s.carry = nil
			s.pos += int64(len(out))
			end, skipped := s.pos, s.pending
			s.pending = 0
			return out, end, skipped, nil
		}
		if s.pending > 0 {
			// Over-long line(s) ran into EOF with no trailing data: report
			// the count on a data-free progress return before the EOF.
			end, skipped := s.pos, s.pending
			s.pending = 0
			return nil, end, skipped, nil
		}
	}
	return nil, 0, 0, s.rerr
}

// consume folds one read block into the source state and returns at most one
// line-aligned chunk (nil when the block only extended the carry or skipped
// over-long bytes). s.pos advances over everything consumed: skipped lines
// and any returned chunk.
func (s *readerSource) consume(b []byte) []byte {
	if s.skipping {
		// Discard the tail of a line already counted as over-long.
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			s.pos += int64(len(b))
			return nil
		}
		s.pos += int64(i + 1)
		s.skipping = false
		b = b[i+1:]
	}
	if len(b) == 0 {
		return nil
	}
	nl := bytes.LastIndexByte(b, '\n')
	if nl >= 0 {
		if first := bytes.IndexByte(b, '\n'); len(s.carry)+first > maxLineBytes {
			// The chunk's first line spans the carry and is over-long: skip
			// just that line, keep the rest of the block.
			s.pos += int64(len(s.carry) + first + 1)
			s.carry = s.carry[:0]
			s.pending++
			b = b[first+1:]
			nl = bytes.LastIndexByte(b, '\n')
		}
	}
	if nl < 0 {
		if len(s.carry)+len(b) > maxLineBytes {
			// The line under construction can never fit; drop it and skip
			// forward to its newline.
			s.pos += int64(len(s.carry) + len(b))
			s.carry = s.carry[:0]
			s.skipping = true
			s.pending++
		} else {
			s.carry = append(s.carry, b...)
		}
		return nil
	}
	if s.serial {
		// Zero-copy serial delivery: the chunk aliases s.buf, which is not
		// refilled until the caller asks for the next chunk. A carried
		// partial line is stitched to the block's first line in the small
		// joined buffer, and the rest of the block is held back one call
		// (pendingData) so both halves ship without copying the block.
		var out []byte
		if len(s.carry) == 0 {
			out = b[:nl+1]
		} else {
			first := bytes.IndexByte(b, '\n') // exists: nl >= 0
			s.joined = append(append(s.joined[:0], s.carry...), b[:first+1]...)
			out = s.joined
			if first < nl {
				s.pendingData = b[first+1 : nl+1]
			}
		}
		s.carry = append(s.carry[:0], b[nl+1:]...)
		s.pos += int64(len(out))
		return out
	}
	// Fresh backing for both chunk and carry: the returned chunk is handed
	// to workers, and both s.buf and s.carry are reused.
	out := make([]byte, 0, len(s.carry)+nl+1)
	out = append(append(out, s.carry...), b[:nl+1]...)
	s.carry = append(s.carry[:0], b[nl+1:]...)
	s.pos += int64(len(out))
	return out
}

// stop records the terminal condition of the underlying reader. A clean end
// (EOF, or ErrUnexpectedEOF from the final short block) becomes io.EOF; real
// errors drop the carried partial line, matching the previous producer.
func (s *readerSource) stop(rerr error) {
	if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
		s.rerr = io.EOF
		return
	}
	s.carry = nil
	s.pending = 0
	s.rerr = fmt.Errorf("clf: read: %w", rerr)
}

// bytesSource serves line-aligned windows of an in-memory byte slice —
// normally an mmap'd file, so NextChunk is zero-copy: the window aliases the
// mapping and stays valid until Close unmaps it.
type bytesSource struct {
	data  []byte
	off   int
	kind  SourceKind
	unmap func() error
}

func (s *bytesSource) Kind() SourceKind { return s.kind }

func (s *bytesSource) Close() error {
	s.data = nil
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	return u()
}

func (s *bytesSource) NextChunk(chunkBytes int) ([]byte, int64, int, error) {
	if chunkBytes <= 0 {
		chunkBytes = readChunkSize
	}
	if s.off >= len(s.data) {
		return nil, 0, 0, io.EOF
	}
	cut := s.off + chunkBytes
	if cut >= len(s.data) {
		cut = len(s.data)
	} else if nl := bytes.LastIndexByte(s.data[s.off:cut], '\n'); nl >= 0 {
		cut = s.off + nl + 1
	} else if j := bytes.IndexByte(s.data[cut:], '\n'); j >= 0 {
		// The window's single line extends past it: grow to the newline so
		// every chunk holds whole lines. parseChunk enforces the line cap.
		cut += j + 1
	} else {
		cut = len(s.data)
	}
	chunk := s.data[s.off:cut]
	s.off = cut
	return chunk, int64(cut), 0, nil
}

// asyncSource decodes an inner Source ahead of the pipeline on its own
// goroutine — the mechanism that lets gzip decompression of upcoming files
// in a rotated set overlap with parsing the current one.
type asyncSource struct {
	kind   SourceKind
	ch     chan asyncChunk
	cancel chan struct{}
	done   chan struct{}
	once   sync.Once
}

type asyncChunk struct {
	data    []byte
	end     int64
	skipped int
	err     error
}

func newAsyncSource(inner Source, chunkBytes int) *asyncSource {
	a := &asyncSource{
		kind:   inner.Kind(),
		ch:     make(chan asyncChunk, 2),
		cancel: make(chan struct{}),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(a.done)
		defer inner.Close()
		for {
			data, end, skipped, err := inner.NextChunk(chunkBytes)
			select {
			case a.ch <- asyncChunk{data, end, skipped, err}:
				if err != nil {
					return
				}
			case <-a.cancel:
				return
			}
		}
	}()
	return a
}

func (a *asyncSource) Kind() SourceKind { return a.kind }

func (a *asyncSource) NextChunk(int) ([]byte, int64, int, error) {
	c, ok := <-a.ch
	if !ok {
		return nil, 0, 0, io.EOF
	}
	return c.data, c.end, c.skipped, c.err
}

func (a *asyncSource) Close() error {
	a.once.Do(func() { close(a.cancel) })
	<-a.done
	return nil
}

// gzipMagic is the two-byte header that selects the gzip source.
var gzipMagic = []byte{0x1f, 0x8b}

// sniffGzip reports whether the file starts with the gzip magic bytes,
// without moving the read position.
func sniffGzip(f *os.File) bool {
	var magic [2]byte
	n, _ := f.ReadAt(magic[:], 0)
	return n == 2 && bytes.Equal(magic[:], gzipMagic)
}

// openSourceAt opens path as a Source positioned at offset (decoded bytes
// for gzip members). Plain files become mmap windows when supported and not
// disabled, the buffered reader otherwise; gzip files always decode through
// the buffered path, discarding to the resume offset.
func openSourceAt(path string, offset int64, noMmap bool) (Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if sniffGzip(f) {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("clf: gzip %s: %w", path, err)
		}
		if offset > 0 {
			if _, err := io.CopyN(io.Discard, gz, offset); err != nil {
				gz.Close()
				f.Close()
				return nil, fmt.Errorf("clf: gzip %s: resume offset %d: %w", path, offset, err)
			}
		}
		return newReaderSource(gz, SourceGzip, offset, gz, f), nil
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if !noMmap && info.Mode().IsRegular() {
		if data, unmap, merr := mmapFile(f, info.Size()); merr == nil {
			off := int(offset)
			if offset > info.Size() {
				off = len(data)
			}
			fc := f
			return &bytesSource{data: data, off: off, kind: SourceMmap, unmap: func() error {
				err := unmap()
				fc.Close()
				return err
			}}, nil
		}
		// Mapping failed (or, on non-unix builds, the whole-file load did):
		// rewind and fall through to the buffered reader.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	if offset > 0 {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	return newReaderSource(f, SourceReader, offset, f), nil
}
