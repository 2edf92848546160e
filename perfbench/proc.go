package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished program run, measured from outside.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration // user + sys
	rssMiB float64       // peak resident set
	ready  time.Duration // launch until the marker line appeared on stderr
	stdout []byte
	stderr string
}

// markWriter collects a program's stderr and notes how long after launch
// the first output containing mark arrived. The program writes its stderr
// unbuffered, so that is when the program reached the line.
type markWriter struct {
	buf   bytes.Buffer
	mark  []byte
	start time.Time
	at    time.Duration
	seen  chan struct{} // closed once mark has arrived
}

func newMarkWriter(mark string) *markWriter {
	return &markWriter{mark: []byte(mark), seen: make(chan struct{})}
}

func (w *markWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if w.at == 0 && len(w.mark) > 0 && bytes.Contains(w.buf.Bytes(), w.mark) {
		w.at = time.Since(w.start)
		close(w.seen)
	}
	return len(p), nil
}

// runProgram runs a program to completion and measures its wall time (from
// launch to exit), CPU time and peak RSS from the kernel's rusage, and,
// when mark is not empty, the time from launch to the first stderr output
// containing mark. A non-zero exit, or a mark that never appeared, is an
// error that carries the program's stderr.
func runProgram(timeout time.Duration, extraEnv []string, mark, name string, args ...string) (*procRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.SysProcAttr = childAttr()
	var stdout bytes.Buffer
	stderr := newMarkWriter(mark)
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	stderr.start = time.Now()
	err := cmd.Run()
	wall := time.Since(stderr.start)
	if err == nil && mark != "" && stderr.at == 0 {
		err = fmt.Errorf("no %q line", mark)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w: %s", name, err, tail(stderr.buf.String(), 400))
	}
	r := &procRun{wall: wall, ready: stderr.at, stdout: stdout.Bytes(), stderr: stderr.buf.String()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// timeToMark launches a program, waits for the first stderr output
// containing mark, then kills the program and waits for it to end. It
// returns the time from launch to the mark: the program's set-up time,
// measured without running the rest of it.
func timeToMark(mark, name string, args ...string) (time.Duration, error) {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = childAttr()
	cmd.SysProcAttr.Setpgid = true // so the kill reaches any child it started
	stderr := newMarkWriter(mark)
	cmd.Stderr = stderr
	stderr.start = time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case <-stderr.seen:
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-exited
		return stderr.at, nil
	case err := <-exited:
		if stderr.at > 0 {
			return stderr.at, nil
		}
		return 0, fmt.Errorf("%s exited before its %q line: %v: %s", name, mark, err, tail(stderr.buf.String(), 400))
	case <-time.After(60 * time.Second):
		syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-exited
		return 0, fmt.Errorf("%s: no %q line within 60s", name, mark)
	}
}

// childAttr makes the kernel kill a program under test if the benchmark
// dies first, so no run leaves a process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// processCPU is the user+sys CPU a running process has used so far.
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; 100 on Linux.
const clockTicks = 100

var planLine = regexp.MustCompile(`(?m)^\w+: plan: (.*)$`)

// planOf extracts the execution plan a program logged on stderr.
func planOf(stderr string) string {
	if m := planLine.FindStringSubmatch(stderr); m != nil {
		return m[1]
	}
	return ""
}

func tail(s string, n int) string {
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}

// releaseMemory returns the benchmark's garbage to the OS and resets its
// peak-RSS mark before it starts measured programs. Go starts a child with
// vfork semantics, and Linux folds the parent memory's high-water mark into
// the child's peak RSS at exec, so a large benchmark heap, even one already
// freed, would inflate peak_rss_mib.
func releaseMemory() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Printf("env warning: cannot reset peak RSS (%v); peak_rss_mib may include the benchmark's own peak\n", err)
	}
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "VmRSS:") {
				fmt.Printf("env pbench_rss %s\n", strings.Join(strings.Fields(l)[1:], " "))
			}
		}
	}
}
