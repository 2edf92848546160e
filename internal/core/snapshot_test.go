package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"smartsra/internal/clf"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
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
// shard count restores into any other shard count (and into NewTail's one)
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
		src, err := NewSessionizer(Config{Graph: g}, 0, fromShards, false)
		if err != nil {
			t.Fatal(err)
		}
		got := feedTail(src.Push, records[:cut])
		snap := src.Snapshot()
		if snap.Stats != src.Stats() {
			t.Fatalf("from=%d: snapshot stats %+v, want %+v", fromShards, snap.Stats, src.Stats())
		}

		for _, toShards := range []int{1, 2, 5} {
			dst, err := NewSessionizer(Config{Graph: g}, 0, toShards, false)
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

		// Sharded snapshot into a single-shard Tail.
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
// or unsorted users, stats inconsistent with the user list) are rejected on
// one shard and on several.
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
		st, err := NewSessionizer(Config{Graph: g}, 0, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Restore(snap); err == nil {
			t.Errorf("%s: 3-shard Restore accepted invalid snapshot", name)
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
	src, err := NewSessionizer(cfg, 0, 3, false)
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
		dst, err := NewSessionizer(cfg, 0, 2, false)
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

// snapshotFromBytes decodes fuzz bytes into a TailSnapshot: five stat bytes,
// then per user a key from a six-letter alphabet (arbitrary order,
// duplicates possible), an entry count of 0–4, a Last time, and per entry a
// page ID from -1 to pages+1 (so some fall outside the graph) and a time.
// Times are signed 32-bit second offsets from the epoch, so they land
// before and after it and far apart. Decoding stops when the bytes run out.
func snapshotFromBytes(data []byte, pages int) TailSnapshot {
	next := func(n int) []byte {
		if len(data) < n {
			data = nil
			return nil
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	at := func() (time.Time, bool) {
		b := next(4)
		if b == nil {
			return time.Time{}, false
		}
		return time.Unix(int64(int32(binary.LittleEndian.Uint32(b))), 0), true
	}
	var snap TailSnapshot
	if st := next(5); st != nil {
		snap.Stats = Stats{Records: int(st[0]), Filtered: int(st[1]), Unresolved: int(st[2]), Users: int(st[3] % 16), Sessions: int(st[4])}
	}
	for {
		hdr := next(2)
		if hdr == nil {
			return snap
		}
		last, ok := at()
		if !ok {
			return snap
		}
		u := UserState{User: string(rune('a' + hdr[0]%6)), Last: last}
		for i := 0; i < int(hdr[1]%5); i++ {
			pg := next(1)
			t, ok := at()
			if !ok {
				break
			}
			u.Entries = append(u.Entries, session.Entry{Page: webgraph.PageID(int(pg[0])%(pages+3) - 1), Time: t})
		}
		snap.Users = append(snap.Users, u)
	}
}

// FuzzTailRestore pins the one Restore over arbitrary snapshots: a
// single-shard and a 3-shard Tail never panic and agree on accepting or
// rejecting. When accepted, Snapshot hands back the input's users minus the
// entry-less ones with the input's stats on both, and Flush emits
// byte-identical sessions on both, each in time order.
func FuzzTailRestore(f *testing.F) {
	f.Add([]byte{9, 1, 2, 3, 7, 0, 2, 0, 0, 0, 0, 3, 100, 0, 0, 0, 4, 160, 0, 0, 0, 1, 1, 1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 10, 0, 0, 0, 0, 4, 0, 0, 0, 200, 0, 0, 0})
	f.Add([]byte{5, 5, 5, 5, 5, 3, 4, 255, 255, 255, 255, 2, 0, 0, 0, 128, 3, 10, 0, 0, 128, 1, 4, 0, 0, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 3, 0, 2, 1, 0, 0, 0, 0, 40, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	g := goldenGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap := snapshotFromBytes(data, g.NumPages())
		one, err := NewTail(Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		three, err := NewSessionizer(Config{Graph: g}, 0, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		err1, err3 := one.Restore(snap), three.Restore(snap)
		if (err1 == nil) != (err3 == nil) {
			t.Fatalf("1 shard: %v, 3 shards: %v", err1, err3)
		}
		if err1 != nil {
			return
		}
		var want []UserState
		for _, u := range snap.Users {
			if len(u.Entries) > 0 {
				want = append(want, u)
			}
		}
		for _, tl := range []*Tail{one, three} {
			got := tl.Snapshot()
			if !reflect.DeepEqual(got.Users, want) {
				t.Fatalf("%d shards: snapshot users %+v, want %+v", tl.Shards(), got.Users, want)
			}
			if got.Stats != snap.Stats || tl.Stats() != snap.Stats {
				t.Fatalf("%d shards: stats %+v / %+v, want %+v", tl.Shards(), got.Stats, tl.Stats(), snap.Stats)
			}
		}
		out1, out3 := one.Flush(), three.Flush()
		if !bytes.Equal(renderSessions(t, out1), renderSessions(t, out3)) {
			t.Fatalf("Flush differs between 1 and 3 shards:\n%s\nvs\n%s", renderSessions(t, out1), renderSessions(t, out3))
		}
		for _, s := range out1 {
			for i := 1; i < len(s.Entries); i++ {
				if s.Entries[i].Time.Before(s.Entries[i-1].Time) {
					t.Fatalf("session %s out of time order", s)
				}
			}
		}
	})
}
