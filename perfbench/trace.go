package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one pair,
// request or job share Op; Parent is the span that caused this one
// (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Op     string        `json:"op,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op returning span id 0, so traced
// and untraced runs execute the same code.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	open  map[int64]span
	done  []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: map[int64]span{}}
}

// beginAt opens a span that started at t.
func (t *tracer) beginAt(name string, parent int64, op string, at time.Time) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	t.mu.Lock()
	t.open[id] = span{ID: id, Parent: parent, Name: name, Op: op, Start: at.Sub(t.epoch)}
	t.mu.Unlock()
	return id
}

func (t *tracer) begin(name string, parent int64, op string) int64 {
	return t.beginAt(name, parent, op, time.Now())
}

// endAt closes span id at t, attaching a byte count when one applies.
func (t *tracer) endAt(id int64, at time.Time, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.open[id]
	if !ok {
		return
	}
	delete(t.open, id)
	s.End = at.Sub(t.epoch)
	s.Bytes = bytes
	t.done = append(t.done, s)
}

func (t *tracer) end(id int64) { t.endAt(id, time.Now(), 0) }

// add records a finished span from timestamps taken elsewhere, such as
// a JobView's created/started/finished.
func (t *tracer) add(name string, parent int64, op string, start, end time.Time) int64 {
	id := t.beginAt(name, parent, op, start)
	t.endAt(id, end, 0)
	return id
}

func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// named returns the durations (ms) of every finished span called name.
func (t *tracer) named(name string) []float64 {
	var xs []float64
	for _, s := range t.spans() {
		if s.Name == name {
			xs = append(xs, ms(s.dur()))
		}
	}
	return xs
}

// layerOf maps a span name onto the repository layer it times: the
// part before the first dot ("serve.handler" is serve, "prep" is prep).
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each span's duration minus the part of it covered by
// its children, summed per layer, together with the root spans' own
// uncovered time and total wall time, over the roots with the given names.
func selfTimes(spans []span, roots ...string) (layers map[string]time.Duration, uncovered, wall time.Duration, n int) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	layers = map[string]time.Duration{}
	inRoot := map[int64]bool{}
	var mark func(id int64)
	mark = func(id int64) {
		inRoot[id] = true
		for _, c := range children[id] {
			mark(c.ID)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && slices.Contains(roots, s.Name) {
			mark(s.ID)
		}
	}
	for _, s := range spans {
		if !inRoot[s.ID] {
			continue
		}
		self := s.dur() - covered(s, children[s.ID])
		if s.Parent == 0 {
			uncovered += self
			wall += s.dur()
			n++
			continue
		}
		layers[layerOf(s.Name)] += self
	}
	return layers, uncovered, wall, n
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// writeSpans dumps the trace for offline inspection.
func writeSpans(path string, t *tracer) error {
	data, err := json.Marshal(t.spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanHeader carries the caller's span id across an HTTP hop so the
// server-side span can name its parent; opHeader carries the shared
// request or job id.
const (
	spanHeader = "X-Perfbench-Span"
	opHeader   = "X-Perfbench-Op"
)

// tracedHandler wraps a public http.Handler seam (Server.Handler(), a
// cluster.Worker) and records one span per request while a tracer is
// installed; with none it only forwards.
type tracedHandler struct {
	name string
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64) // no header: a root span
	id := tr.begin(h.name, parent, r.Header.Get(opHeader))
	h.next.ServeHTTP(w, r)
	tr.end(id)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
