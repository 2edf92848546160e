package clf

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestStreamMatchesReadAll pins the sequential streaming reader to ReadAll:
// same records in the same order, same malformed count.
func TestStreamMatchesReadAll(t *testing.T) {
	log := synthLog(21, 3000)
	want, wantBad, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var got []Record
	gotBad, err := Stream(strings.NewReader(log), func(rec Record) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	if gotBad != wantBad || len(got) != len(want) {
		t.Fatalf("got %d/%d, want %d/%d", len(got), gotBad, len(want), wantBad)
	}
	for i := range got {
		if !recordsMatch(got[i], want[i]) {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, got[i], want[i])
		}
	}
}

// streamAll collects StreamChunked's output. Chunk slices are only valid
// during the callback, so their records are copied out.
func streamAll(r io.Reader, workers, depth, chunk int, progress func(FilePos) error) ([]Record, int, error) {
	var recs []Record
	bad, err := StreamChunked(r, workers, depth, chunk, func(c []Record) { recs = append(recs, c...) }, progress)
	return recs, bad, err
}

// TestStreamParallelMatchesReadAll pins the bounded chunk-parallel pipeline
// (StreamChunked) for every workers/depth combination, including small
// chunk sizes that force lines across chunk boundaries.
func TestStreamParallelMatchesReadAll(t *testing.T) {
	for _, seed := range []int64{4, 11} {
		log := synthLog(seed, 4000)
		want, wantBad, err := ReadAll(strings.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			for _, depth := range []int{1, 2, 8} {
				for _, chunk := range []int{64, 4096, readChunkSize} {
					got, gotBad, err := streamAll(strings.NewReader(log), workers, depth, chunk, nil)
					if err != nil {
						t.Fatal(err)
					}
					if gotBad != wantBad || len(got) != len(want) {
						t.Fatalf("seed=%d workers=%d depth=%d chunk=%d: got %d/%d, want %d/%d",
							seed, workers, depth, chunk, len(got), gotBad, len(want), wantBad)
					}
					for i := range got {
						if !recordsMatch(got[i], want[i]) {
							t.Fatalf("seed=%d workers=%d depth=%d chunk=%d: record %d differs:\n%+v\n%+v",
								seed, workers, depth, chunk, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestStreamParallelPartialOnReadError: records the chunked pipeline parsed
// before a read error are delivered, and the error is returned after them.
func TestStreamParallelPartialOnReadError(t *testing.T) {
	log := synthLog(9, 300)
	want, _, seqErr := ReadAll(&chunkFailReader{data: []byte(log)})
	got, _, parErr := streamAll(&chunkFailReader{data: []byte(log)}, 4, 2, 0, nil)
	if seqErr == nil || parErr == nil {
		t.Fatalf("want read errors, got %v / %v", seqErr, parErr)
	}
	if len(got) != len(want) {
		t.Fatalf("partial records: stream %d, sequential %d", len(got), len(want))
	}
}

// TestStreamParallelOversizedLine: a line above the 1 MiB cap is skipped and
// counted as malformed — not an abort — and both readers agree, so a hostile
// line cannot stop ingestion of everything around it.
func TestStreamParallelOversizedLine(t *testing.T) {
	huge := sampleLine + "\n" + strings.Repeat("a", maxLineBytes+2) + "\n" + sampleLine + "\n"
	var seqRecs int
	seqBad, seqErr := Stream(strings.NewReader(huge), func(Record) { seqRecs++ })
	par, parBad, parErr := streamAll(strings.NewReader(huge), 4, 2, 0, nil)
	parRecs := len(par)
	if seqErr != nil || parErr != nil {
		t.Fatalf("oversized line must not abort: sequential err=%v, parallel err=%v", seqErr, parErr)
	}
	if seqRecs != 2 || parRecs != 2 {
		t.Fatalf("records around the oversized line: sequential %d, parallel %d, want 2", seqRecs, parRecs)
	}
	if seqBad != 1 || parBad != 1 {
		t.Fatalf("oversized line must count as malformed once: sequential %d, parallel %d", seqBad, parBad)
	}
}

// FuzzStreamChunks pins the chunk splitter/reassembler against the
// sequential Scanner for arbitrary byte input, tiny chunk sizes, and any
// workers/depth: no line is ever dropped, duplicated, or split, including
// CR/LF edge cases and lines longer than the chunk size. Equivalence of the
// record sequence plus the malformed count implies all three — a dropped or
// duplicated line changes a count, a split line changes both parses.
func FuzzStreamChunks(f *testing.F) {
	f.Add([]byte(sampleLine+"\n"+sampleLine), uint8(4), uint8(2), uint8(1))
	f.Add([]byte("garbage\r\n\r\n"+sampleLine+"\r\n"), uint8(1), uint8(3), uint8(2))
	f.Add([]byte(sampleLine+` "/r.html" "agent"`+"\n\n"+sampleLine), uint8(16), uint8(2), uint8(8))
	f.Add([]byte(strings.Repeat("x", 300)+"\n"+sampleLine+"\n"), uint8(7), uint8(5), uint8(1))
	f.Add([]byte("\n\r\n \t\n"), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, input []byte, chunkSize, workers, depth uint8) {
		if len(input) > 1<<16 {
			return
		}
		// Chunks of 1..64 bytes force every boundary case; workers >= 2 so
		// the worker pool (not the inline loop) is exercised.
		chunk := int(chunkSize)%64 + 1
		w := int(workers)%4 + 2
		d := int(depth)%4 + 1

		want, wantBad, wantErr := ReadAll(bytes.NewReader(input))
		got, gotBad, gotErr := streamAll(bytes.NewReader(input), w, d, chunk, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error mismatch: scanner %v, stream %v", wantErr, gotErr)
		}
		if gotBad != wantBad {
			t.Fatalf("malformed count %d, want %d", gotBad, wantBad)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records, want %d", len(got), len(want))
		}
		for i := range got {
			if !recordsMatch(got[i], want[i]) {
				t.Fatalf("record %d differs:\n%+v\n%+v", i, got[i], want[i])
			}
		}
	})
}
