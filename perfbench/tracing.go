package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval: run, phase, engine step, or public call.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// IDs start at 1; parent 0 is the root.
type tracer struct {
	t0    time.Time
	spans []span
	root  int32 // the run span
}

// run returns the run span, the parent of every phase.
func (t *tracer) run() int32 {
	if t == nil {
		return 0
	}
	return t.root
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return int32(len(t.spans))
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// endAs ends a span whose name is known only once it is over.
func (t *tracer) endAs(id int32, name string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Name = name
	t.end(id)
}

// selfTimes returns each span name's self time: its spans' durations less
// the parts covered by their child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// dump writes the spans as JSON lines to .bench_build/spans/<name>.jsonl
// and the self times to <name>.self.json next to it.
func (t *tracer) dump(name string) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type row struct {
		Name   string  `json:"name"`
		SelfMs float64 `json:"self_ms"`
	}
	rows := make([]row, 0, len(names))
	for _, n := range names {
		rows = append(rows, row{n, float64(self[n]) / 1e6})
	}
	b, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".self.json"), append(b, '\n'), 0o644)
}
