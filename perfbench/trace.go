package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a wrapper boundary. Times are offsets from
// the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64
	Parent int64
	Name   string
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory; nothing is written until the run
// ends. A nil or switched-off tracer records nothing, so the wrappers can
// stay in place while set-up runs untraced.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	next  int64
	// byKey links a campaign key to the client request span waiting for
	// it: the server runs campaigns on its own contexts, so the key is the
	// only thing both sides of the HTTP hop know.
	byKey map[string]int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), byKey: map[string]int64{}}
	t.on.Store(true)
	return t
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its ID and start offset; the ID is 0
// when the tracer is not recording.
func (t *tracer) begin() (int64, time.Duration) {
	if !t.active() {
		return 0, 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, time.Since(t.epoch)
}

// end records a finished span opened by begin.
func (t *tracer) end(id, parent int64, name string, start time.Duration) {
	if id == 0 {
		return
	}
	stop := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: stop})
	t.mu.Unlock()
}

// linkKey registers span id as the waiter for campaign key k until the
// returned func is called.
func (t *tracer) linkKey(k string, id int64) func() {
	t.mu.Lock()
	t.byKey[k] = id
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		if t.byKey[k] == id {
			delete(t.byKey, k)
		}
		t.mu.Unlock()
	}
}

func (t *tracer) keyParent(k string) int64 {
	if !t.active() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byKey[k]
}

// snapshot returns the spans recorded so far, in start order.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

type spanKey struct{}

// withSpan returns ctx carrying id as the parent of spans opened below it.
func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func parentOf(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// unionLen returns the total length of the union of intervals, each
// clipped to [lo, hi].
func unionLen(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanIndex answers the parent/child questions of the per-layer report.
type spanIndex struct {
	spans    []span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: map[int64][]span{}}
	for _, s := range spans {
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// covered is the part of s's interval that its children cover. Children
// may overlap one another (an adaptive round measures its batch
// concurrently), so it is the union, not the sum.
func (ix *spanIndex) covered(s span) time.Duration {
	kids := ix.children[s.ID]
	iv := make([][2]time.Duration, len(kids))
	for i, k := range kids {
		iv[i] = [2]time.Duration{k.Start, k.End}
	}
	return unionLen(iv, s.Start, s.End)
}

// self is s's duration minus the union of its children's intervals.
func (ix *spanIndex) self(s span) time.Duration { return s.dur() - ix.covered(s) }

// layerTotals sums, over every span named name: the count, the total
// duration, the self time and the child-covered time.
func (ix *spanIndex) layerTotals(name string) (n int, total, self, covered time.Duration) {
	for _, s := range ix.spans {
		if s.Name != name {
			continue
		}
		c := ix.covered(s)
		n++
		total += s.dur()
		covered += c
		self += s.dur() - c
	}
	return n, total, self, covered
}

// writeChromeTrace writes the spans as a Chrome trace_event JSON file
// (complete "X" events, microsecond timestamps). Spans are laid out on
// rows so that each row holds non-overlapping spans, which keeps nested
// spans readable in a trace viewer; args carry the span and parent IDs.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		Ts   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		Pid  int              `json:"pid"`
		Tid  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	var rowEnd []time.Duration
	events := make([]event, 0, len(spans))
	for _, s := range spans { // start order, from snapshot
		row := -1
		for i, e := range rowEnd {
			if e <= s.Start {
				row = i
				break
			}
		}
		if row < 0 {
			row = len(rowEnd)
			rowEnd = append(rowEnd, 0)
		}
		rowEnd[row] = s.End
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: row,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
