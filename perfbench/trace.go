package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans nest: a checked result ("unit") is
// the parent of every layer call made for it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only the clock reads they need anyway.
// The benchmark is sequential, so one open-span stack suffices.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// mark is an open span: what end needs to close it.
type mark struct {
	id    int // span ID, 0 when untraced
	start time.Time
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) mark {
	start := time.Now()
	if t == nil {
		return mark{start: start}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.origin).Seconds()})
	t.open = append(t.open, id-1)
	return mark{id: id, start: start}
}

// end closes the span m (the innermost open one) and returns its host
// seconds.
func (t *tracer) end(m mark) float64 {
	end := time.Now()
	if t != nil {
		t.open = t.open[:len(t.open)-1]
		t.spans[m.id-1].End = end.Sub(t.origin).Seconds()
	}
	return end.Sub(m.start).Seconds()
}

// selfTimes returns, per span name, the summed self time of the
// descendants of the span with the given ID plus that span's own self
// time under its own name: a span's self time is its duration minus the
// part its children cover. Children never overlap (calls are sequential),
// so the self times of a subtree add up to the root span's duration.
func (t *tracer) selfTimes(rootID int) map[string]float64 {
	inTree := map[int]bool{rootID: true}
	child := make(map[int]float64)
	for _, s := range t.spans {
		if inTree[s.Parent] {
			inTree[s.ID] = true
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if inTree[s.ID] {
			self[s.Name] += s.dur() - child[s.ID]
		}
	}
	return self
}

// write stores every span as JSON.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
