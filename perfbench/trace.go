package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, recorded on the
// benchmark's side of a call into a layer.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"` // index of the causing span; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps a run's spans in memory; write emits them when the run
// ends. Safe for concurrent use (the agents of a TCP pair record their
// spans from their own goroutines).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its child spans cover. Children are clipped to the
// parent and merged first, so overlapping children — the two agents of
// a TCP pair working at once — are not subtracted twice. Unclosed spans
// have zero self time.
func selfTimes(spans []span) []time.Duration {
	kids := make([][][2]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered time.Duration
		cur := [2]time.Duration{-1, -1}
		for _, iv := range ivs {
			iv[0], iv[1] = max(iv[0], s.Start), min(iv[1], s.End)
			if iv[1] <= iv[0] {
				continue
			}
			if iv[0] > cur[1] {
				if cur[1] > cur[0] {
					covered += cur[1] - cur[0]
				}
				cur = iv
				continue
			}
			cur[1] = max(cur[1], iv[1])
		}
		if cur[1] > cur[0] {
			covered += cur[1] - cur[0]
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// summary prints, per span name, the count and total self time, largest
// first.
func summary(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		name  string
		n     int
		total time.Duration
	}
	byName := map[string]*agg{}
	var order []*agg
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			byName[s.Name] = a
			order = append(order, a)
		}
		a.n++
		a.total += self[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].total > order[j].total })
	fmt.Fprintf(w, "%-34s %7s %12s\n", "span", "count", "self_ms")
	for _, a := range order {
		fmt.Fprintf(w, "%-34s %7d %12.3f\n", a.name, a.n, float64(a.total)/float64(time.Millisecond))
	}
}

// writeSpans stores the spans and their self times as JSON at path.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
