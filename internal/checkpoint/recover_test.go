package checkpoint_test

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartsra/internal/checkpoint"
	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// TestRecoverChecks: Recover resumes only from a checkpoint that fits the
// input set and the session file. Every rejection empties the session file
// and returns the zero position (a full replay) with a reason; acceptance
// restores the snapshot and cuts the file back to SinkOffset.
func TestRecoverChecks(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "access.log.0")
	gz := filepath.Join(dir, "access.log.1.gz")
	if err := os.WriteFile(plain, bytes.Repeat([]byte("x"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write([]byte("y"))
	zw.Close()
	if err := os.WriteFile(gz, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	set := []string{plain, gz}
	last := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	snap := core.TailSnapshot{
		Stats: core.Stats{Records: 7, Users: 1},
		Users: []core.UserState{{User: "10.0.0.1", Last: last, Entries: []session.Entry{{Page: 1, Time: last}}}},
	}
	ok := checkpoint.Checkpoint{LogFile: 0, LogPath: plain, LogOffset: 60, SinkOffset: 5, Tail: snap}
	cases := []struct {
		name  string
		edit  func(*checkpoint.Checkpoint)
		paths []string
		why   string // substring of the reason; "" = accepted
	}{
		{"accepted", func(*checkpoint.Checkpoint) {}, set, ""},
		{"gzip offsets count decoded bytes and pass unchecked", func(c *checkpoint.Checkpoint) {
			c.LogFile, c.LogPath, c.LogOffset = 1, gz, 1<<20
		}, set, ""},
		{"empty path, one-file set", func(c *checkpoint.Checkpoint) { c.LogPath = "" }, set[:1], ""},
		{"index past the set", func(c *checkpoint.Checkpoint) { c.LogFile = 2 }, set, "index"},
		{"negative index", func(c *checkpoint.Checkpoint) { c.LogFile = -1 }, set, "index"},
		{"empty path, multi-file set", func(c *checkpoint.Checkpoint) { c.LogPath = "" }, set, "multi-file"},
		{"renamed member", func(c *checkpoint.Checkpoint) { c.LogPath = plain + ".old" }, set, "now has"},
		{"log shorter than offset", func(c *checkpoint.Checkpoint) { c.LogOffset = 101 }, set, "ahead of " + plain},
		{"session file shorter than offset", func(c *checkpoint.Checkpoint) { c.SinkOffset = 11 }, set, "session file"},
		{"snapshot fails to restore", func(c *checkpoint.Checkpoint) {
			c.Tail.Users = append(c.Tail.Users, c.Tail.Users[0])
			c.Tail.Stats.Users = 2
		}, set, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := filepath.Join(t.TempDir(), "sessions.txt")
			if err := os.WriteFile(sink, []byte("0123456789"), 0o644); err != nil {
				t.Fatal(err)
			}
			out, err := checkpoint.OpenSessionFile(sink)
			if err != nil {
				t.Fatal(err)
			}
			defer out.Close()
			tail, err := core.NewTail(core.Config{Graph: paperGraph()}, 0)
			if err != nil {
				t.Fatal(err)
			}
			ck := ok
			ck.Tail.Users = append([]core.UserState(nil), ok.Tail.Users...)
			tc.edit(&ck)
			start, base, reason, err := checkpoint.Recover(&ck, tc.paths, out, tail)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(sink)
			if err != nil {
				t.Fatal(err)
			}
			if tc.why != "" {
				if !strings.Contains(reason, tc.why) {
					t.Errorf("reason %q, want it to mention %q", reason, tc.why)
				}
				if start != (clf.FilePos{}) || base != 0 || len(got) != 0 || tail.Stats().Records != 0 {
					t.Errorf("rejected checkpoint left start=%+v base=%d session file %q, %d records restored",
						start, base, got, tail.Stats().Records)
				}
				return
			}
			if reason != "" {
				t.Fatalf("rejected: %s", reason)
			}
			if start != (clf.FilePos{File: ck.LogFile, Offset: ck.LogOffset}) || base != 7 || string(got) != "01234" {
				t.Errorf("start=%+v base=%d session file %q, want the checkpoint's position, base 7, %q",
					start, base, got, "01234")
			}
			if tail.Stats().Records != 7 {
				t.Errorf("restored %d records, want 7", tail.Stats().Records)
			}
		})
	}

	t.Run("no checkpoint", func(t *testing.T) {
		sink := filepath.Join(t.TempDir(), "sessions.txt")
		if err := os.WriteFile(sink, []byte("left over"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := checkpoint.OpenSessionFile(sink)
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		tail, err := core.NewTail(core.Config{Graph: paperGraph()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		start, base, reason, err := checkpoint.Recover(nil, set, out, tail)
		if err != nil || reason != "" || start != (clf.FilePos{}) || base != 0 {
			t.Fatalf("Recover(nil) = (%+v, %d, %q, %v), want a clean full replay", start, base, reason, err)
		}
		if got, _ := os.ReadFile(sink); len(got) != 0 {
			t.Fatalf("session file %q, want it emptied", got)
		}
	})
}

// TestSessionFileKnownGoodOffset: a batch is written at the known-good
// offset, so bytes past it — a torn write from a failed attempt, or junk a
// crash left — are overwritten by the next batch, and Sync reports exactly
// the bytes of complete batches.
func TestSessionFileKnownGoodOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.txt")
	out, err := checkpoint.OpenSessionFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	batch := []session.Session{{User: "u", Entries: []session.Entry{{Page: 3}, {Page: 4}}}}
	if err := out.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	line := "u:[3 4]\n"
	junk, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk.WriteString("u:[3 4")
	junk.Close()
	if err := out.WriteBatch(batch); err != nil {
		t.Fatal(err)
	}
	size, err := out.Sync()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != line+line || size != int64(2*len(line)) {
		t.Fatalf("file %q, Sync size %d; want %q, %d", got, size, line+line, 2*len(line))
	}
	// Reopen picks up a fresh file at its own end (log rotation).
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := out.Reopen(path); err != nil {
		t.Fatal(err)
	}
	if size, _ := out.Sync(); size != 0 {
		t.Fatalf("reopened file at offset %d, want 0", size)
	}
}

func paperGraph() *webgraph.Graph {
	g, _ := webgraph.PaperFigure1()
	return g
}
