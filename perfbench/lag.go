package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// seenLine is a session line and when the benchmark first saw it in the
// sessions file.
type seenLine struct {
	line string
	at   time.Time
}

// fileTail polls a growing file and timestamps each complete line as it
// appears.
type fileTail struct {
	path  string
	mu    sync.Mutex
	lines []seenLine
	off   int64
	part  []byte
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
}

func startFileTail(path string, every time.Duration) *fileTail {
	t := &fileTail{path: path, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			t.poll()
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return t
}

// poll reads whatever the file gained since the last poll.
func (t *fileTail) poll() {
	f, err := os.Open(t.path)
	if err != nil {
		return // not created yet
	}
	defer f.Close()
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return
	}
	b, err := io.ReadAll(f)
	if err != nil || len(b) == 0 {
		return
	}
	now := time.Now()
	t.off += int64(len(b))
	t.part = append(t.part, b...)
	for {
		i := bytes.IndexByte(t.part, '\n')
		if i < 0 {
			break
		}
		t.lines = append(t.lines, seenLine{line: string(t.part[:i]), at: now})
		t.part = t.part[i+1:]
	}
}

// close stops polling after one last read and returns every line seen.
// Later calls return the same lines.
func (t *fileTail) close() []seenLine {
	t.once.Do(func() {
		close(t.stop)
		<-t.done
		t.poll()
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lines
}

// sessionUser is the user a session line ("user:[p1 p2 ...]") belongs to.
func sessionUser(line string) (string, bool) {
	i := strings.Index(line, ":[")
	if i <= 0 {
		return "", false
	}
	return line[:i], true
}

// emissionLags computes the reactive lag, one sample per user: when the
// user's last session line was first seen, minus the CLF time of the
// user's last request plus the burst gap rho. The lag covers the expiry
// tick's wait, the ingest queue, reconstruction and the sink write, but not
// rho itself. Users with requests but no session line are counted as
// missing.
func emissionLags(lines []seenLine, accessLog io.Reader, rho time.Duration) (lags []time.Duration, missing int, err error) {
	lastSeen := make(map[string]time.Time)
	for _, l := range lines {
		u, ok := sessionUser(l.line)
		if !ok {
			return nil, 0, fmt.Errorf("malformed session line %q", l.line)
		}
		lastSeen[u] = l.at // lines are in file order: the last one wins
	}
	lastReq := make(map[string]time.Time)
	var order []string
	sc := bufio.NewScanner(accessLog)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		host, at, err := clfHostTime(sc.Text())
		if err != nil {
			return nil, 0, err
		}
		prev, ok := lastReq[host]
		if !ok {
			order = append(order, host)
		}
		if !ok || at.After(prev) {
			lastReq[host] = at
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	for _, u := range order {
		seen, ok := lastSeen[u]
		if !ok {
			missing++
			continue
		}
		lags = append(lags, seen.Sub(lastReq[u].Add(rho)))
	}
	return lags, missing, nil
}

// clfHostTime reads the client and the time of one Common Log Format line:
// host ident user [02/Jan/2006:15:04:05 -0700] "request" status bytes.
func clfHostTime(line string) (string, time.Time, error) {
	host, _, _ := strings.Cut(line, " ")
	_, rest, ok := strings.Cut(line, "[")
	stamp, _, ok2 := strings.Cut(rest, "]")
	if host == "" || !ok || !ok2 {
		return "", time.Time{}, fmt.Errorf("access log: malformed line %q", line)
	}
	at, err := time.Parse("02/Jan/2006:15:04:05 -0700", stamp)
	if err != nil {
		return "", time.Time{}, fmt.Errorf("access log: %w", err)
	}
	return host, at, nil
}
