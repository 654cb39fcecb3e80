package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer:
// name, start, end, parent and request id. Spans nest on one goroutine, so
// open spans form a stack. Self time (a span's duration minus its
// children's) is summed per name as spans end; the first logCap finished
// spans are kept in memory and written out when the run ends. A nil
// *tracer records nothing, which is the untraced mode.
type tracer struct {
	t0    time.Time
	open  []openSpan
	log   []span
	next  int64
	self  map[string]time.Duration
	calls map[string]int64
}

type openSpan struct {
	id, req int64
	name    string
	start   time.Duration
	child   time.Duration
}

type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      time.Duration
}

// logCap bounds the spans kept for the trace file; self times cover all.
const logCap = 1 << 18

func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{}, calls: map[string]int64{}}
}

// begin opens a span named for the layer it wraps. req ties the spans of
// one request (one call or burst) together.
func (t *tracer) begin(name string, req int64) {
	if t == nil {
		return
	}
	t.next++
	t.open = append(t.open, openSpan{id: t.next, req: req, name: name, start: time.Since(t.t0)})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	s := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	dur := now - s.start
	t.self[s.name] += dur - s.child
	t.calls[s.name]++
	var parent int64
	if len(t.open) > 0 {
		p := &t.open[len(t.open)-1]
		p.child += dur
		parent = p.id
	}
	if len(t.log) < logCap {
		t.log = append(t.log, span{ID: s.id, Parent: parent, Req: s.req, Name: s.name, Start: s.start, End: now})
	}
}

// selfTimes lists each span name's summed self time, largest first.
func (t *tracer) selfTimes() []string {
	names := make([]string, 0, len(t.self))
	for n := range t.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.self[names[i]] > t.self[names[j]] })
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("self %-24s %10.3f ms over %d spans", n, float64(t.self[n])/1e6, t.calls[n])
	}
	return out
}

// write saves the kept spans as JSON lines, times in ns since the run's
// start.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, s := range t.log {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
