package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// ExpiryCut records one timed Expire a live sessionizer performed, placed
// exactly in its record stream: after Records records had been pushed (and
// before the next one), Expire(At) ran and its sessions were emitted. A run
// that journals every cut makes periodic expiry replayable — an offline pass
// over the same records that applies Expire(At) at the same boundaries
// reproduces the live output byte for byte, because both runs perform the
// identical operation sequence on the same deterministic state machine.
//
// The boundary is a record count, not a byte offset, so cuts compose with
// multi-file input sets, backfill prologues, and gzip members: whatever the
// source, the Nth record pushed is the Nth record pushed.
type ExpiryCut struct {
	// Seq orders cuts within a run (1-based, strictly increasing). Crash
	// recovery uses it to skip cuts already baked into a restored snapshot:
	// a checkpoint records the last applied Seq, and replay re-applies only
	// later ones.
	Seq int64
	// Records is the number of records the sessionizer had been fed when the
	// cut was taken. The cut applies after record Records and before record
	// Records+1.
	Records int64
	// At is the wall-clock cutoff Expire ran with.
	At time.Time
}

// AppendCut writes one cut journal line. The format is a plain text record —
// "cut <seq> <records> <unixnano>\n" — so a torn final line from a crash is
// detectable (no trailing newline) and the journal remains greppable.
func AppendCut(w io.Writer, c ExpiryCut) error {
	_, err := fmt.Fprintf(w, "cut %d %d %d\n", c.Seq, c.Records, c.At.UnixNano())
	return err
}

// ReadCuts parses a cut journal. A final line without a terminating newline
// is a torn append from a crash and is ignored — every complete line before
// it is still valid. Anything else that is not exactly the AppendCut format
// — a malformed line, trailing text after the third field, a Seq that does
// not strictly increase — is an error: the journal is machine-written, so a
// bad line means corruption, and replaying around it would silently produce
// a different session stream.
func ReadCuts(r io.Reader) ([]ExpiryCut, error) {
	var cuts []ExpiryCut
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			// No newline: torn final append, ignore it.
			return cuts, nil
		}
		if err != nil {
			return nil, err
		}
		c, err := parseCut(strings.TrimSuffix(line, "\n"))
		if err == nil && len(cuts) > 0 && c.Seq <= cuts[len(cuts)-1].Seq {
			err = fmt.Errorf("seq %d does not follow %d", c.Seq, cuts[len(cuts)-1].Seq)
		}
		if err != nil {
			return nil, fmt.Errorf("core: cut journal line %d: %q: %w", len(cuts)+1, line, err)
		}
		cuts = append(cuts, c)
	}
}

// parseCut decodes one journal line without its newline.
func parseCut(line string) (ExpiryCut, error) {
	f := strings.Split(line, " ")
	if len(f) != 4 || f[0] != "cut" {
		return ExpiryCut{}, fmt.Errorf("want \"cut <seq> <records> <unixnano>\"")
	}
	var v [3]int64
	for i := range v {
		n, err := strconv.ParseInt(f[i+1], 10, 64)
		if err != nil {
			return ExpiryCut{}, err
		}
		v[i] = n
	}
	if v[0] <= 0 || v[1] < 0 {
		return ExpiryCut{}, fmt.Errorf("non-positive seq or negative records")
	}
	return ExpiryCut{Seq: v[0], Records: v[1], At: time.Unix(0, v[2])}, nil
}

// CutsAfter returns the cuts with Seq > seq from a Seq-ordered journal (as
// ReadCuts returns it) — the suffix a crash recovery must re-apply on top of
// a snapshot that recorded seq as its last applied cut.
func CutsAfter(cuts []ExpiryCut, seq int64) []ExpiryCut {
	out := make([]ExpiryCut, 0, len(cuts))
	for _, c := range cuts {
		if c.Seq > seq {
			out = append(out, c)
		}
	}
	return out
}
