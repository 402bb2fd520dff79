package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Parent is the index of the enclosing span in the
// tracer's list (-1 for an operation's root); all spans of one operation
// share Op.
type span struct {
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Detail string        `json:"detail,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// key names the span's layer: its name, qualified by its detail if any.
func (s span) key() string {
	if s.Detail == "" {
		return s.Name
	}
	return s.Name + "/" + s.Detail
}

// tracer records spans in memory. A disabled tracer records nothing and
// its calls cost one branch, so the untraced run executes the same code.
// It is used from one goroutine at a time.
type tracer struct {
	on    bool
	epoch time.Time
	op    int
	spans []span
	open  []int // indexes of the spans begun and not yet ended
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span as a child of the innermost open span and returns
// its index, or -1 when tracing is off.
func (t *tracer) begin(name, detail string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, Parent: t.parent(), Name: name, Detail: detail, Start: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned; it must be the innermost open one.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// record adds an already finished span under the innermost open span,
// for calls that are worth a span only when they turned out to do work.
func (t *tracer) record(name string, start, end time.Duration) {
	if t.on {
		t.spans = append(t.spans, span{Op: t.op, Parent: t.parent(), Name: name, Start: start, End: end})
	}
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// selfTimes sums, per span key, each span's duration minus the part
// covered by its direct children, over spans[lo:hi] (parents index the
// whole slice). Children of one span never overlap: the benchmark is a
// single goroutine.
func selfTimes(spans []span, lo, hi int) map[string]time.Duration {
	child := make(map[int]time.Duration)
	for i := lo; i < hi; i++ {
		if p := spans[i].Parent; p >= 0 {
			child[p] += spans[i].dur()
		}
	}
	self := make(map[string]time.Duration)
	for i := lo; i < hi; i++ {
		self[spans[i].key()] += spans[i].dur() - child[i]
	}
	return self
}

// coverage is the share of span i's duration covered by its direct
// children among spans[lo:hi].
func coverage(spans []span, i, lo, hi int) float64 {
	var covered time.Duration
	for j := lo; j < hi; j++ {
		if spans[j].Parent == i {
			covered += spans[j].dur()
		}
	}
	if d := spans[i].dur(); d > 0 {
		return float64(covered) / float64(d)
	}
	return 0
}

// writeSpans writes every recorded span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
