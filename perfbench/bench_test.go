package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// smallSpec keeps test inputs tiny; proxies make the aliasing path run too.
var smallSpec = simSpec{Agents: 60, Window: time.Hour, ProxyFraction: 0.5, ProxySize: 8}

func TestSameSeedSameInputs(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	var logs, topos [][]byte
	for _, d := range dirs {
		in, err := genLog(d, smallSpec, 7)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, mustRead(t, in.Log))
		topos = append(topos, mustRead(t, in.Topology))
	}
	if !bytes.Equal(logs[0], logs[1]) || !bytes.Equal(topos[0], topos[1]) {
		t.Fatal("the same seed generated different inputs")
	}
	other, err := genLog(t.TempDir(), smallSpec, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(logs[0], mustRead(t, other.Log)) {
		t.Fatal("different seeds generated the same log")
	}

	g, res, err := simulate(smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, res2, err := simulate(smallSpec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := res.Schedule(g), res2.Schedule(g); len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("the same seed gave different live schedules (%d vs %d requests)", len(a), len(b))
	}
}

// A one-byte change to any gated output must fail its gate.
func TestOneByteChangeFailsGates(t *testing.T) {
	in, err := genLog(t.TempDir(), smallSpec, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "sessions.txt")
	if err := os.WriteFile(out, []byte("10.0.0.1:[3 7 9]\n10.0.0.2:[1 4]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sum, err := fileSHA256(out)
	if err != nil {
		t.Fatal(err)
	}
	pin := ingestPin{SHA256: sum, Stats: fmt.Sprintf("records=%d malformed=0 sessions=2", in.Records)}
	stderr := "sessionize: plan: sequential\npipeline:  " + pin.Stats + " (streaming)\n"
	if err := checkIngestOutput(out, stderr, pin); err != nil {
		t.Fatalf("unchanged output failed the ingest gate: %v", err)
	}
	flipByte(t, out)
	if checkIngestOutput(out, stderr, pin) == nil {
		t.Fatal("ingest gate passed a sessions file with one byte changed")
	}
	flipByte(t, out)
	bad := strings.Replace(stderr, "records=", "records=1", 1)
	if checkIngestOutput(out, bad, pin) == nil {
		t.Fatal("ingest gate passed changed Stats() counts")
	}

	live := filepath.Join(t.TempDir(), "live")
	replay := filepath.Join(t.TempDir(), "replay")
	for _, p := range []string{live, replay} {
		if err := os.WriteFile(p, mustRead(t, out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if same, err := sameNonEmptyFiles(live, replay); err != nil || !same {
		t.Fatalf("serve gate failed identical files: %v", err)
	}
	flipByte(t, replay)
	if same, _ := sameNonEmptyFiles(live, replay); same {
		t.Fatal("serve gate passed a replay with one byte changed")
	}

	table := []byte("Table 5 defaults, 10000 agents\nheur4     66.53 ± 0.15\n")
	want := evalPin{SHA256: sha(table), Table: string(table)}
	if err := checkEvalOutput(table, want); err != nil {
		t.Fatalf("unchanged table failed the eval gate: %v", err)
	}
	table[len(table)-3] ^= 1
	if checkEvalOutput(table, want) == nil {
		t.Fatal("eval gate passed a table with one byte changed")
	}
}

// timeToMark must return once the mark is out, not when the program ends,
// and must end the program.
func TestTimeToMark(t *testing.T) {
	t0 := time.Now()
	d, err := timeToMark(planMark, "/bin/sh", "-c", "echo starting >&2; sleep 0.05; echo 'sessionize: plan: sequential' >&2; sleep 30")
	if err != nil {
		t.Fatal(err)
	}
	if d < 50*time.Millisecond || time.Since(t0) > 10*time.Second {
		t.Fatalf("mark after %v, returned after %v", d, time.Since(t0))
	}
	if _, err := timeToMark(planMark, "/bin/sh", "-c", "echo no plan >&2"); err == nil {
		t.Fatal("a program that never printed the mark was timed")
	}
	r, err := runProgram(10*time.Second, nil, planMark, "/bin/sh", "-c", "sleep 0.05; echo 'sessionize: plan: parallel' >&2")
	if err != nil || r.ready < 50*time.Millisecond || r.ready > r.wall {
		t.Fatalf("runProgram ready %v wall %v err %v", r.ready, r.wall, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "b", Start: 15, End: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 18, End: 30}, // overlaps its sibling
		{ID: 4, Parent: 0, Name: "a", Start: 50, End: 60},
		{ID: 5, Parent: 4, Name: "c", Start: 55, End: 70}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100 - 30 - 10, // minus both a spans
		"a":    (30 - 15) + (10 - 5),
		"b":    5 + 12,
		"c":    15,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.record("after", tr.now(), tr.now()+5)
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[2].Parent != outer {
		t.Fatalf("parents = %d, %d, want %d", tr.spans[1].Parent, tr.spans[2].Parent, outer)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored")) // a nil tracer records nothing
}

func TestEmissionLags(t *testing.T) {
	rho := 10 * time.Second
	at := func(s string) time.Time {
		ts, err := time.Parse(time.RFC3339, s)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	log := strings.Join([]string{
		`10.0.0.1 - - [02/Jan/2006:00:00:00 +0000] "GET /a HTTP/1.1" 200 10`,
		`10.0.0.2 - - [02/Jan/2006:00:00:01 +0000] "GET /a HTTP/1.1" 200 10`,
		`10.0.0.1 - - [02/Jan/2006:00:00:03 +0000] "GET /b HTTP/1.1" 200 10`,
		`10.0.0.3 - - [02/Jan/2006:00:00:04 +0000] "GET /b HTTP/1.1" 200 10`,
	}, "\n") + "\n"
	lines := []seenLine{
		{"10.0.0.1:[1 2]", at("2006-01-02T00:00:12Z")}, // an earlier session of user 1
		{"10.0.0.2:[1]", at("2006-01-02T00:00:11.5Z")},
		{"10.0.0.1:[3]", at("2006-01-02T00:00:13.25Z")}, // user 1's last line
	}
	lags, missing, err := emissionLags(lines, strings.NewReader(log), rho)
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond}
	if !reflect.DeepEqual(lags, want) || missing != 1 {
		t.Fatalf("lags %v missing %d, want %v missing 1", lags, missing, want)
	}
	if _, _, err := emissionLags([]seenLine{{"garbage", at("2006-01-02T00:00:12Z")}}, strings.NewReader(log), rho); err == nil {
		t.Fatal("a malformed session line was accepted")
	}
}

func TestFileTailTimestampsCompleteLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.txt")
	ft := startFileTail(path, time.Millisecond)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("u1:[1 2]\nu2:[")
	time.Sleep(20 * time.Millisecond)
	f.WriteString("3]\n")
	f.Close()
	lines := ft.close()
	if len(lines) != 2 || lines[0].line != "u1:[1 2]" || lines[1].line != "u2:[3]" {
		t.Fatalf("lines = %+v", lines)
	}
	if !lines[1].at.After(lines[0].at) {
		t.Fatal("the line completed later was not stamped later")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if _, ok := tailQuantile(xs, 0.99); ok {
		t.Fatal("p99 of 4 samples was reported")
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i)
	}
	if v, ok := tailQuantile(many, 0.99); !ok || v < 989 || v > 990 {
		t.Fatalf("p99 of 0..999 = %v, %v", v, ok)
	}
}

func flipByte(t *testing.T, path string) {
	t.Helper()
	b := mustRead(t, path)
	b[len(b)/2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
