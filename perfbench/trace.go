package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is the enclosing span's ID, or -1 at the root.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64
}

// tracer keeps spans in memory for one single-goroutine traced run. A nil
// *tracer records nothing, so the traced and untraced runs share one code
// path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Start: t.now(), End: -1})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("tracer: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// record adds an already-finished interval under the innermost open span,
// for work whose start the benchmark only learns afterwards (a chunk the
// reader parsed before handing it over).
func (t *tracer) record(name string, start, end int64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: t.parent(), Name: name, Start: start, End: end})
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// counts is the number of spans per name.
func counts(spans []span) map[string]int {
	c := make(map[string]int)
	for _, s := range spans {
		c[s.Name]++
	}
	return c
}

// write saves the spans as tab-separated id, parent, name, start, end.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
