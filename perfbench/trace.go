package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span
// that caused it (0 for a root); Op groups every span of one op.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans and counters in memory until the run ends. A nil
// *recorder is valid and records nothing, so the untraced path calls
// the same code at the cost of a nil check.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex // guards: spans, counts
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// add accumulates a counter.
func (r *recorder) add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[name] += v
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that child spans cover. Children may nest,
// overlap each other (concurrent calls) or stick out of the parent;
// only the covered part of the parent's own interval counts.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		lo, hi := s.Start, s.Start // current merged interval, clipped to s
		for _, k := range kids {
			a, b := max(k.Start, s.Start), min(k.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				covered += hi - lo
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		covered += hi - lo
		out[s.ID] = s.dur() - covered
	}
	return out
}

// layerTotals sums span durations and self times by span name.
func layerTotals(spans []span) (total, self map[string]time.Duration) {
	st := selfTimes(spans)
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	for _, s := range spans {
		total[s.Name] += s.dur()
		self[s.Name] += st[s.ID]
	}
	return total, self
}

// writeSpans writes every span with its self time as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	st := selfTimes(spans)
	for _, s := range spans {
		rec := struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, st[s.ID]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
