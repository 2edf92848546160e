package core

import (
	"bytes"
	"testing"

	"smartsra/internal/clf"
	"smartsra/internal/session"
)

// feedTail pushes records one by one, collecting finalized sessions.
func feedTail(push func(clf.Record) []session.Session, records []clf.Record) []session.Session {
	var out []session.Session
	for _, rec := range records {
		out = append(out, push(rec)...)
	}
	return out
}

// TestTailSnapshotRestoreRoundTrip: cutting a stream at any point, moving the
// state through Snapshot/Restore into a fresh Tail, and continuing must
// produce exactly the sessions of the uninterrupted run.
func TestTailSnapshotRestoreRoundTrip(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	records, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := feedTail(ref.Push, records)
	want = append(want, ref.Flush()...)
	wantStats := ref.Stats()

	for cut := 0; cut <= len(records); cut += 3 {
		first, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := feedTail(first.Push, records[:cut])
		snap := first.Snapshot()

		second, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := second.Restore(snap); err != nil {
			t.Fatalf("cut=%d: restore: %v", cut, err)
		}
		got = append(got, feedTail(second.Push, records[cut:])...)
		got = append(got, second.Flush()...)
		if !bytes.Equal(renderSessions(t, got), renderSessions(t, want)) {
			t.Fatalf("cut=%d: sessions diverge after snapshot/restore", cut)
		}
		if second.Stats() != wantStats {
			t.Fatalf("cut=%d: stats %+v, want %+v", cut, second.Stats(), wantStats)
		}
	}
}

// TestShardedSnapshotRestoreAcrossShardCounts: a snapshot taken from one
// shard count restores into any other shard count (and into a plain Tail)
// without changing the emitted sessions or the stats.
func TestShardedSnapshotRestoreAcrossShardCounts(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	records, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := feedTail(ref.Push, records)
	want = append(want, ref.Flush()...)
	wantBytes := renderSessions(t, want)
	wantStats := ref.Stats()

	cut := len(records) / 2
	for _, fromShards := range []int{1, 3, 8} {
		src, err := NewShardedTail(Config{Graph: g}, 0, fromShards)
		if err != nil {
			t.Fatal(err)
		}
		got := feedTail(src.Push, records[:cut])
		snap := src.Snapshot()
		if snap.Stats != src.Stats() {
			t.Fatalf("from=%d: snapshot stats %+v, want %+v", fromShards, snap.Stats, src.Stats())
		}

		for _, toShards := range []int{1, 2, 5} {
			dst, err := NewShardedTail(Config{Graph: g}, 0, toShards)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.Restore(snap); err != nil {
				t.Fatalf("from=%d to=%d: restore: %v", fromShards, toShards, err)
			}
			cont := append(append([]session.Session(nil), got...), feedTail(dst.Push, records[cut:])...)
			cont = append(cont, dst.Flush()...)
			if !bytes.Equal(renderSessions(t, cont), wantBytes) {
				t.Fatalf("from=%d to=%d: sessions diverge", fromShards, toShards)
			}
			if dst.Stats() != wantStats {
				t.Fatalf("from=%d to=%d: stats %+v, want %+v", fromShards, toShards, dst.Stats(), wantStats)
			}
		}

		// Sharded snapshot into a plain Tail.
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Restore(snap); err != nil {
			t.Fatalf("from=%d to=tail: restore: %v", fromShards, err)
		}
		cont := append(append([]session.Session(nil), got...), feedTail(tl.Push, records[cut:])...)
		cont = append(cont, tl.Flush()...)
		if !bytes.Equal(renderSessions(t, cont), wantBytes) {
			t.Fatalf("from=%d to=tail: sessions diverge", fromShards)
		}
	}
}

// TestSnapshotIsDeepCopy: mutating the processor after Snapshot must not
// change the snapshot, and restoring must not alias the snapshot's slices.
func TestSnapshotIsDeepCopy(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	records, _, err := clf.ReadAll(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	feedTail(tl.Push, records[:len(records)/2])
	snap := tl.Snapshot()
	before := snap.Buffered()
	feedTail(tl.Push, records[len(records)/2:])
	tl.Flush()
	if snap.Buffered() != before {
		t.Fatalf("snapshot mutated by later pushes: buffered %d, want %d", snap.Buffered(), before)
	}

	restored, err := NewTail(Config{Graph: g}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	restored.Flush()
	if snap.Buffered() != before {
		t.Fatalf("snapshot mutated by restored tail: buffered %d, want %d", snap.Buffered(), before)
	}
}

// TestRestoreRejectsInvalidSnapshots: logically corrupt snapshots (duplicate
// or unsorted users, stats inconsistent with the user list) are rejected by
// both processors.
func TestRestoreRejectsInvalidSnapshots(t *testing.T) {
	g := goldenGraph()
	cases := map[string]TailSnapshot{
		"dup users": {
			Stats: Stats{Users: 2},
			Users: []UserState{{User: "a"}, {User: "a"}},
		},
		"unsorted": {
			Stats: Stats{Users: 2},
			Users: []UserState{{User: "b"}, {User: "a"}},
		},
		// Users may exceed the open-burst list (closed users are evicted but
		// stay counted as activations); fewer than the list is impossible.
		"stats mismatch": {
			Stats: Stats{Users: 0},
			Users: []UserState{{User: "a"}},
		},
	}
	for name, snap := range cases {
		tl, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Restore(snap); err == nil {
			t.Errorf("%s: Tail.Restore accepted invalid snapshot", name)
		}
		st, err := NewShardedTail(Config{Graph: g}, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(snap); err == nil {
			t.Errorf("%s: ShardedTail.Restore accepted invalid snapshot", name)
		}
	}
}

// TestIngestOffsetsConsistentSnapshots: at every progress boundary during
// Run, (snapshot, offset) must be a consistent resume point — restoring
// the snapshot into a fresh processor and replaying the log suffix from the
// offset reproduces the uninterrupted session stream.
func TestIngestOffsetsConsistentSnapshots(t *testing.T) {
	log := readGolden(t, "golden.log")
	g := goldenGraph()
	want := readGolden(t, "golden.stream.sessions")

	type point struct {
		off  int64
		snap TailSnapshot
		sunk []byte // sessions emitted up to this boundary
	}
	cfg := Config{Graph: g, Workers: 2, StreamDepth: 2}
	src, err := NewShardedTail(cfg, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []session.Session
	var points []point
	if _, err := Run(src, Input{Reader: bytes.NewReader(log)}, RunOptions{
		Sink: func(s []session.Session) { emitted = append(emitted, s...) },
		Progress: func(pos clf.FilePos) error {
			points = append(points, point{pos.Offset, src.Snapshot(), renderSessions(t, emitted)})
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	emitted = append(emitted, src.Flush()...)
	if !bytes.Equal(renderSessions(t, emitted), want) {
		t.Fatal("uninterrupted progress-reporting Run diverges from golden")
	}

	for i, p := range points {
		dst, err := NewShardedTail(cfg, 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Restore(p.snap); err != nil {
			t.Fatal(err)
		}
		var tail []session.Session
		if _, err := Run(dst, Input{Reader: bytes.NewReader(log[p.off:])},
			RunOptions{Sink: func(s []session.Session) { tail = append(tail, s...) }}); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, dst.Flush()...)
		got := append(append([]byte(nil), p.sunk...), renderSessions(t, tail)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("boundary %d (offset %d): resumed run diverges from golden", i, p.off)
		}
	}
}
