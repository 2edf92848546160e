package checkpoint

import (
	"fmt"
	"io"
	"os"
	"sync"

	"smartsra/internal/clf"
	"smartsra/internal/core"
	"smartsra/internal/session"
)

// SessionFile is the session output of a recoverable run. Writes land at a
// known-good offset: each batch first truncates the file back to the end of
// the last complete batch, so a torn write from a failed attempt is healed by
// the next one instead of corrupting the file, and the known-good size is
// exactly the SinkOffset a checkpoint records. Safe for concurrent use.
type SessionFile struct {
	mu   sync.Mutex
	f    *os.File
	good int64 // bytes known to hold only complete batches
}

// OpenSessionFile opens (creating if needed) the session file at path; the
// known-good offset starts at its current end.
func OpenSessionFile(path string) (*SessionFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &SessionFile{f: f, good: info.Size()}, nil
}

// WriteBatch appends one batch at the known-good offset and advances it. It
// fits core.NewRetrySink, whose retries then rewrite the same bytes.
func (o *SessionFile) WriteBatch(batch []session.Session) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.truncate(o.good); err != nil {
		return err
	}
	if err := session.WriteAll(o.f, batch); err != nil {
		return err
	}
	off, err := o.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	o.good = off
	return nil
}

// Reset cuts the file back to off, discarding everything a replay will
// re-emit; Reset(0) empties it.
func (o *SessionFile) Reset(off int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.truncate(off); err != nil {
		return err
	}
	o.good = off
	return nil
}

// truncate cuts the file to off and positions the next write there. Caller
// holds o.mu.
func (o *SessionFile) truncate(off int64) error {
	if err := o.f.Truncate(off); err != nil {
		return err
	}
	_, err := o.f.Seek(off, io.SeekStart)
	return err
}

// Sync flushes the file to stable storage and returns its known-good size:
// the SinkOffset of a checkpoint taken now. The size is valid even when the
// sync fails.
func (o *SessionFile) Sync() (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.good, o.f.Sync()
}

// Reopen swaps in a fresh handle on path, positioned at its end — log
// rotation, where path now names a new file.
func (o *SessionFile) Reopen(path string) error {
	n, err := OpenSessionFile(path)
	if err != nil {
		return err
	}
	o.mu.Lock()
	old := o.f
	o.f, o.good = n.f, n.good
	o.mu.Unlock()
	return old.Close()
}

// Close closes the file.
func (o *SessionFile) Close() error { return o.f.Close() }

// Recover brings a restarted run to a state consistent with its input: it
// validates ck against the resolved input set paths and the session file,
// restores ck.Tail into t, and cuts out back to ck.SinkOffset, returning the
// position to resume reading from and the record count already in t (the
// core.RunOptions.Base of the replay). A nil ck, or one that fails a check,
// means a full replay: out is emptied, the zero position is returned, and
// reason says why a checkpoint was rejected. The checks:
//
//   - LogFile indexes paths, and LogPath still names that member (an empty
//     LogPath, from a checkpoint that predates multi-file sets, only fits a
//     one-file set), so a rotated or renamed set never resumes inside the
//     wrong file;
//   - LogOffset is within a plain member (gzip offsets count decoded bytes,
//     so the decoder checks them when it discards to the offset);
//   - SinkOffset is within the session file;
//   - the snapshot restores.
//
// err reports only I/O failures on out.
func Recover(ck *Checkpoint, paths []string, out *SessionFile, t *core.Tail) (start clf.FilePos, base int64, reason string, err error) {
	var sinkOff int64
	if ck != nil {
		if reason, err = validate(ck, paths, out); err != nil {
			return clf.FilePos{}, 0, "", err
		}
		if reason == "" {
			if rerr := t.Restore(ck.Tail); rerr != nil {
				reason = rerr.Error()
			}
		}
		if reason == "" {
			start = clf.FilePos{File: ck.LogFile, Offset: ck.LogOffset}
			base, sinkOff = int64(ck.Tail.Stats.Records), ck.SinkOffset
		}
	}
	return start, base, reason, out.Reset(sinkOff)
}

// validate is Recover's consistency check of ck against the files; a
// non-empty reason rejects it.
func validate(ck *Checkpoint, paths []string, out *SessionFile) (string, error) {
	if ck.LogFile < 0 || ck.LogFile >= len(paths) {
		return fmt.Sprintf("checkpoint file index %d outside the %d-file input set", ck.LogFile, len(paths)), nil
	}
	target := paths[ck.LogFile]
	switch {
	case ck.LogPath == "" && len(paths) > 1:
		return "single-file checkpoint cannot place itself in a multi-file set", nil
	case ck.LogPath != "" && ck.LogPath != target:
		return fmt.Sprintf("checkpoint was at %s, input set now has %s there", ck.LogPath, target), nil
	}
	if !clf.IsGzipFile(target) {
		fi, err := os.Stat(target)
		if err != nil {
			return fmt.Sprintf("stat %s: %v", target, err), nil
		}
		if ck.LogOffset > fi.Size() {
			return fmt.Sprintf("checkpoint is ahead of %s (%d > %d bytes)", target, ck.LogOffset, fi.Size()), nil
		}
	}
	out.mu.Lock()
	info, err := out.f.Stat()
	out.mu.Unlock()
	if err != nil {
		return "", err
	}
	if ck.SinkOffset > info.Size() {
		return fmt.Sprintf("checkpoint is ahead of the session file (%d > %d bytes)", ck.SinkOffset, info.Size()), nil
	}
	return "", nil
}
