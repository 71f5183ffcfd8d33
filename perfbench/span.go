package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call the benchmark makes into a layer's public
// function: its name, its interval in seconds since the tracer's epoch,
// the span that caused it (-1 for a root), and an optional tag such as
// a batch's grid class or a request's path.
type span struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Tag    string  `json:"tag,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. A tracer that
// is off records nothing, so untraced runs pay only for the clock reads
// they need anyway.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.epoch).Seconds() }

// open starts a span that later calls name as their parent; close ends
// it. Off, open returns -1.
func (t *tracer) open(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := t.at(time.Now())
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	if id >= 0 {
		t.spans[id].End = t.at(time.Now())
	}
}

// add records a finished call timed by the caller.
func (t *tracer) add(name string, parent int, start, end time.Time, tag string) {
	if t.on {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.at(start), End: t.at(end), Tag: tag})
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Overlapping children count once, and
// a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b float64 }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int {
			switch {
			case x.a < y.a:
				return -1
			case x.a > y.a:
				return 1
			}
			return 0
		})
		covered, end := 0.0, s.Start
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[i] = s.dur() - covered
	}
	return out
}

// layerTotal is one span name's (and tag's) aggregate over a run.
type layerTotal struct {
	Name  string  `json:"name"`
	Tag   string  `json:"tag,omitempty"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// totals aggregates spans by name and tag, in first-seen order.
func totals(spans []span) []layerTotal {
	self := selfTimes(spans)
	var out []layerTotal
	index := map[[2]string]int{}
	for i, s := range spans {
		k := [2]string{s.Name, s.Tag}
		j, ok := index[k]
		if !ok {
			j = len(out)
			index[k] = j
			out = append(out, layerTotal{Name: s.Name, Tag: s.Tag})
		}
		out[j].Count++
		out[j].Total += s.dur()
		out[j].Self += self[i]
	}
	return out
}

// durations lists the durations of the spans with the given name and
// tag ("" matches any tag) under the root span with the given name.
func (t *tracer) durations(root, name, tag string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) && t.rootOf(s) == root {
			out = append(out, s.dur())
		}
	}
	return out
}

func (t *tracer) rootOf(s span) string {
	for s.Parent >= 0 {
		s = t.spans[s.Parent]
	}
	return s.Name
}

// total sums what durations lists.
func (t *tracer) total(root, name, tag string) float64 {
	sum := 0.0
	for _, d := range t.durations(root, name, tag) {
		sum += d
	}
	return sum
}

// write saves the spans and their per-layer totals as JSON.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Header any          `json:"header"`
		Layers []layerTotal `json:"layers"`
		Spans  []span       `json:"spans"`
	}{header, totals(t.spans), t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
