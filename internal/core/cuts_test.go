package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// TestCutJournalRoundTrip pins the journal text format, including the
// crash-torn-final-line tolerance that recovery depends on.
func TestCutJournalRoundTrip(t *testing.T) {
	cuts := []ExpiryCut{
		{Seq: 1, Records: 0, At: time.Unix(1000, 5)},
		{Seq: 2, Records: 42, At: time.Unix(2000, 0)},
		{Seq: 3, Records: 42, At: time.Unix(3000, 999)},
	}
	var buf bytes.Buffer
	for _, c := range cuts {
		if err := AppendCut(&buf, c); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadCuts(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cuts) {
		t.Fatalf("read %d cuts, want %d", len(got), len(cuts))
	}
	for i := range cuts {
		if got[i].Seq != cuts[i].Seq || got[i].Records != cuts[i].Records || !got[i].At.Equal(cuts[i].At) {
			t.Fatalf("cut %d: got %+v, want %+v", i, got[i], cuts[i])
		}
	}

	// A torn final append (no newline) is ignored; the complete prefix holds.
	torn := buf.String() + "cut 4 99 12345"
	got, err = ReadCuts(strings.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cuts) {
		t.Fatalf("torn journal: read %d cuts, want %d", len(got), len(cuts))
	}

	if after := CutsAfter(got, 1); len(after) != 2 || after[0].Seq != 2 || after[1].Seq != 3 {
		t.Fatalf("CutsAfter(1) = %+v, want seqs [2 3]", after)
	}
}

// TestReadCutsRejectsCorruption: every complete line must be exactly the
// AppendCut format with strictly increasing Seq. The glued cases are what a
// torn append followed by a fresh one looks like — accepting them would
// misplace a cut (or invent its time) and break live ≡ offline replay.
func TestReadCutsRejectsCorruption(t *testing.T) {
	for _, tc := range []struct{ name, journal string }{
		{"non-numeric field", "cut one 2 3\n"},
		{"missing field", "cut 1 2\n"},
		{"wrong keyword", "cat 1 2 3\n"},
		{"torn line glued to the next append", "cut 5 10 12cut 5 11 5678\n"},
		{"short tear glued to the next append", "cut 5 1cut 5 11 5678\n"},
		{"trailing text", "cut 1 2 3 extra\n"},
		{"trailing space", "cut 1 2 3 \n"},
		{"zero seq", "cut 0 2 3\n"},
		{"negative records", "cut 1 -2 3\n"},
		{"repeated seq", "cut 1 2 3\ncut 1 4 5\n"},
		{"decreasing seq", "cut 2 2 3\ncut 1 4 5\n"},
	} {
		if cuts, err := ReadCuts(strings.NewReader(tc.journal)); err == nil {
			t.Errorf("%s: %q accepted as %+v", tc.name, tc.journal, cuts)
		}
	}
}

// FuzzReadCuts: the decoder never panics, everything it accepts is a valid
// journal (Seq positive and strictly increasing, Records >= 0), and re-encoding
// the accepted cuts with AppendCut reads back identical.
func FuzzReadCuts(f *testing.F) {
	f.Add([]byte("cut 1 0 1000000005\ncut 2 42 2000000000\n"))
	f.Add([]byte("cut 1 0 1\ncut 4 99 12345"))
	f.Add([]byte("cut 5 10 12cut 5 11 5678\n"))
	f.Add([]byte("cut 1 2 -3\n\n"))
	f.Add([]byte("cut +1 02 3\n"))
	f.Fuzz(func(t *testing.T, journal []byte) {
		cuts, err := ReadCuts(bytes.NewReader(journal))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for i, c := range cuts {
			if c.Seq <= 0 || c.Records < 0 || (i > 0 && c.Seq <= cuts[i-1].Seq) {
				t.Fatalf("accepted invalid cut %d: %+v", i, c)
			}
			if err := AppendCut(&buf, c); err != nil {
				t.Fatal(err)
			}
		}
		again, err := ReadCuts(&buf)
		if err != nil {
			t.Fatalf("re-encoded journal rejected: %v", err)
		}
		if len(again) != len(cuts) {
			t.Fatalf("round trip: %d cuts, want %d", len(again), len(cuts))
		}
		for i := range cuts {
			if again[i].Seq != cuts[i].Seq || again[i].Records != cuts[i].Records || !again[i].At.Equal(cuts[i].At) {
				t.Fatalf("round trip cut %d: %+v, want %+v", i, again[i], cuts[i])
			}
		}
	})
}

// TestIngestFilesCutsEquivalence pins the cut-replay contract on the simgen
// corpus: a record-at-a-time Push loop with Expire(At) applied at the
// journaled record boundaries is the reference, and Run with those cuts must
// reproduce its emission stream byte for byte across the shard × worker ×
// batch sweep — including a restart mid-stream (snapshot, restore, resume
// with base = restored record count and the remaining cuts).
func TestIngestFilesCutsEquivalence(t *testing.T) {
	g := golden2Graph(t)
	log := readGolden(t, "golden2.log")
	records, bad, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("corpus malformed = %d, want 0", bad)
	}

	// Place cuts the way a live server would: mid-stream at uneven record
	// boundaries, with cutoffs far enough past the boundary record's time
	// that real bursts expire, plus one trailing cut past the final record
	// (a tick that fired after traffic stopped) and one no-op duplicate.
	n := int64(len(records))
	mkCut := func(seq, at int64, lead time.Duration) ExpiryCut {
		return ExpiryCut{Seq: seq, Records: at, At: records[at-1].Time.Add(lead)}
	}
	cuts := []ExpiryCut{
		mkCut(1, n/7, session.DefaultPageStay+time.Minute),
		mkCut(2, n/3, session.DefaultPageStay/2), // mostly a no-op: too early to close much
		mkCut(3, n/2, 2*session.DefaultPageStay),
		mkCut(4, n/2, 2*session.DefaultPageStay), // duplicate boundary+cutoff: strict no-op
		mkCut(5, 5*n/6, session.DefaultPageStay+time.Second),
		{Seq: 6, Records: n, At: records[n-1].Time.Add(3 * session.DefaultPageStay)},
	}

	// Reference: sequential Push loop with cuts applied in place.
	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []session.Session
	ci := 0
	for i, rec := range records {
		for ci < len(cuts) && cuts[ci].Records <= int64(i) {
			want = append(want, ref.Expire(cuts[ci].At)...)
			ci++
		}
		want = append(want, ref.Push(rec)...)
	}
	for ; ci < len(cuts); ci++ {
		want = append(want, ref.Expire(cuts[ci].At)...)
	}
	want = append(want, ref.Flush()...)
	wantBytes := renderSessions(t, want)

	logPath := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{0, 1} {
				name := fmt.Sprintf("shards=%d workers=%d batch=%d", shards, workers, batch)
				cfg := Config{Graph: g, Workers: workers, StreamDepth: 2, BatchRecords: batch}
				st, err := NewSessionizer(cfg, 0, shards, false)
				if err != nil {
					t.Fatal(err)
				}
				var got []session.Session
				malformed, err := Run(st, Input{Paths: []string{logPath}}, RunOptions{
					Sink: func(s []session.Session) { got = append(got, s...) },
					Cuts: cuts,
				})
				if err != nil {
					t.Fatal(err)
				}
				if malformed != 0 {
					t.Fatalf("%s: malformed = %d, want 0", name, malformed)
				}
				got = append(got, st.Flush()...)
				if !bytes.Equal(renderSessions(t, got), wantBytes) {
					t.Fatalf("%s: cut-replayed sessions differ from sequential reference", name)
				}
			}
		}
	}

	// Crash-recovery shape: run the first part through a Tail fed directly,
	// snapshot, restore into a fresh ShardedTail, and resume the file replay
	// from the matching byte offset with base = restored record count and
	// only the still-pending cuts. The concatenated emission must match.
	split := n * 2 / 5
	head, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []session.Session
	ci = 0
	for i := int64(0); i < split; i++ {
		for ci < len(cuts) && cuts[ci].Records <= i {
			got = append(got, head.Expire(cuts[ci].At)...)
			ci++
		}
		got = append(got, head.Push(records[i])...)
	}
	appliedSeq := int64(ci) // cuts are numbered 1..k in order here
	snap := head.Snapshot()

	var resumeOff int64
	for i, rest := int64(0), log; i < split; i++ {
		nl := bytes.IndexByte(rest, '\n')
		resumeOff += int64(nl) + 1
		rest = rest[nl+1:]
	}
	st, err := NewShardedTail(Config{Graph: g, Workers: 2, StreamDepth: 2}, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Restore(snap); err != nil {
		t.Fatal(err)
	}
	base := int64(st.Stats().Records)
	if base != split {
		t.Fatalf("restored record count %d, want %d", base, split)
	}
	pending := CutsAfter(cuts, appliedSeq)
	if _, err := Run(st, Input{Paths: []string{logPath}, Start: clf.FilePos{Offset: resumeOff}}, RunOptions{
		Sink: func(s []session.Session) { got = append(got, s...) },
		Base: base,
		Cuts: pending,
	}); err != nil {
		t.Fatal(err)
	}
	got = append(got, st.Flush()...)
	if !bytes.Equal(renderSessions(t, got), wantBytes) {
		t.Fatal("snapshot/restore resume with pending cuts differs from sequential reference")
	}
}
