package clf

import (
	"strings"
	"testing"
)

// TestStreamParallelOffsetsLineAligned pins the replay contract of
// StreamChunked's progress callback: offsets arrive strictly increasing,
// each one sits on a line boundary of the input, and the final offset is
// the input's full length.
func TestStreamParallelOffsetsLineAligned(t *testing.T) {
	log := synthLog(5, 2500)
	for _, workers := range []int{1, 3} {
		for _, chunk := range []int{128, 4096, readChunkSize} {
			var offsets []int64
			_, _, err := streamAll(strings.NewReader(log), workers, 2, chunk,
				func(pos FilePos) error { offsets = append(offsets, pos.Offset); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if len(offsets) == 0 {
				t.Fatalf("workers=%d chunk=%d: no offsets reported", workers, chunk)
			}
			var prev int64
			for _, off := range offsets {
				if off <= prev && !(off == prev && off == int64(len(log))) {
					t.Fatalf("workers=%d chunk=%d: offsets not increasing: %d after %d", workers, chunk, off, prev)
				}
				if off != int64(len(log)) && log[off-1] != '\n' {
					t.Fatalf("workers=%d chunk=%d: offset %d not on a line boundary", workers, chunk, off)
				}
				prev = off
			}
			if offsets[len(offsets)-1] != int64(len(log)) {
				t.Fatalf("workers=%d chunk=%d: final offset %d, want %d",
					workers, chunk, offsets[len(offsets)-1], len(log))
			}
		}
	}
}

// TestStreamParallelOffsetsResume pins what recovery relies on: streaming the
// suffix of the input from any reported offset yields exactly the records not
// yet emitted when that offset was reported — no loss, no duplicates.
func TestStreamParallelOffsetsResume(t *testing.T) {
	log := synthLog(17, 1200)
	want, _, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	type boundary struct {
		off  int64
		seen int // records emitted when off was reported
	}
	var bounds []boundary
	seen := 0
	if _, err := StreamChunked(strings.NewReader(log), 4, 2, 512,
		func(recs []Record) { seen += len(recs) },
		func(pos FilePos) error { bounds = append(bounds, boundary{pos.Offset, seen}); return nil }); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("emitted %d records, want %d", seen, len(want))
	}

	for _, b := range bounds {
		got, _, err := streamAll(strings.NewReader(log[b.off:]), 2, 2, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rest := want[b.seen:]
		if len(got) != len(rest) {
			t.Fatalf("resume from %d: %d records, want %d", b.off, len(got), len(rest))
		}
		for i := range got {
			if !recordsMatch(got[i], rest[i]) {
				t.Fatalf("resume from %d: record %d differs:\n%+v\n%+v", b.off, i, got[i], rest[i])
			}
		}
	}
}

// TestStreamParallelOffsetsSingleWorker: the inline workers == 1 loop
// reports progress per chunk too, and its output still matches the
// sequential reader.
func TestStreamParallelOffsetsSingleWorker(t *testing.T) {
	log := synthLog(23, 800)
	want, wantBad, err := ReadAll(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	got, gotBad, err := streamAll(strings.NewReader(log), 1, 2, 4096,
		func(FilePos) error { fired++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("progress never fired with workers=1")
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
