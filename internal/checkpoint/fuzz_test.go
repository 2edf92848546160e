package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"testing"
	"time"

	"smartsra/internal/core"
	"smartsra/internal/session"
	"smartsra/internal/webgraph"
)

// sealedFS serves one file: a valid header and CRC around a fuzzed payload,
// so inputs reach the gob decoder and the checks behind it instead of all
// dying at the CRC.
type sealedFS []byte

func seal(payload []byte) sealedFS {
	buf := append([]byte(magic), version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

func (s sealedFS) ReadFile(string) ([]byte, error)       { return s, nil }
func (sealedFS) CreateTemp(string, string) (File, error) { return nil, errors.New("read-only") }
func (sealedFS) Rename(string, string) error             { return errors.New("read-only") }
func (sealedFS) Remove(string) error                     { return errors.New("read-only") }

// FuzzLoad feeds Load CRC-valid files with arbitrary payloads. Load must
// never panic; any checkpoint it accepts must have non-negative offsets and
// a well-formed drop ledger; and its snapshot must either be rejected by
// both a 1-shard and a 3-shard Tail or restore into both with identical
// Flush output.
func FuzzLoad(f *testing.F) {
	base := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	for _, ck := range []Checkpoint{
		{},
		{LogOffset: 100, DropSpans: []DropSpan{{Start: 50, End: 10, Records: -2}}},
		{LogOffset: 4096, SinkOffset: 512, LogFile: 1, LogPath: "access.log.1.gz", CutSeq: 7,
			DropSpans: []DropSpan{{Start: 1024, End: 2048, Records: 12}, {Start: 3000, End: 3500, Records: 4}},
			Tail: core.TailSnapshot{
				Stats: core.Stats{Records: 40, Users: 3, Sessions: 3},
				Users: []core.UserState{
					{User: "10.0.0.1", Last: base, Entries: []session.Entry{
						{Page: 3, Time: base.Add(-time.Minute)}, {Page: 14, Time: base},
					}},
					{User: "10.0.0.2", Last: base.Add(-time.Hour)},
					{User: "10.0.0.3", Last: base, Entries: []session.Entry{
						{Page: 9, Time: base}, {Page: -1, Time: base.Add(-time.Second)}, {Page: 1 << 30, Time: base},
					}},
				},
			}},
	} {
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&ck); err != nil {
			f.Fatal(err)
		}
		f.Add(payload.Bytes())
	}
	g, _ := webgraph.PaperFigure1()
	f.Fuzz(func(t *testing.T, payload []byte) {
		ck, err := Load(seal(payload), "state.ckpt")
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load on a sealed payload: %v, want ErrCorrupt", err)
			}
			return
		}
		if ck.LogOffset < 0 || ck.SinkOffset < 0 {
			t.Fatalf("accepted negative offsets: log=%d sink=%d", ck.LogOffset, ck.SinkOffset)
		}
		for i, sp := range ck.DropSpans {
			if sp.Start < 0 || sp.End <= sp.Start || sp.Records < 1 || sp.Records > sp.End-sp.Start ||
				(i > 0 && sp.Start < ck.DropSpans[i-1].End) {
				t.Fatalf("accepted drop span %d %+v of %+v", i, sp, ck.DropSpans)
			}
		}
		one, err := core.NewTail(core.Config{Graph: g}, 0)
		if err != nil {
			t.Fatal(err)
		}
		three, err := core.NewSessionizer(core.Config{Graph: g}, 0, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		err1, err3 := one.Restore(ck.Tail), three.Restore(ck.Tail)
		if (err1 == nil) != (err3 == nil) {
			t.Fatalf("restore: 1 shard: %v, 3 shards: %v", err1, err3)
		}
		if err1 != nil {
			return
		}
		var out1, out3 bytes.Buffer
		if err := session.WriteAll(&out1, one.Flush()); err != nil {
			t.Fatal(err)
		}
		if err := session.WriteAll(&out3, three.Flush()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out3.Bytes()) {
			t.Fatalf("Flush differs between 1 and 3 shards:\n%s\nvs\n%s", out1.Bytes(), out3.Bytes())
		}
	})
}
