package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// maxKeptSpans bounds how many spans each track keeps for the exported
// file; per-layer aggregates cover every span regardless.
const maxKeptSpans = 20000

// span is one timed call into a layer, recorded from the benchmark's own
// code: name, start and end (ns since the tracer's epoch), the span that
// caused it (-1 for a root) and its self time (duration minus its child
// spans'). Spans of one operation share OpID.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	OpID   int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layerAgg totals a layer's spans: count, wall time, and self time (span
// time minus the part its child spans cover).
type layerAgg struct {
	Count  int64 `json:"count"`
	WallNs int64 `json:"wall_ns"`
	SelfNs int64 `json:"self_ns"`
}

// tracer collects spans in memory; each track is written by one thread, so
// recording takes no lock. A nil *track records nothing, which is how the
// untraced run and the untraced windows of a traced run skip tracing.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

type track struct {
	t      *tracer
	name   string
	next   int32
	op     int64
	stack  []open
	kept   []span
	layers map[string]*layerAgg
}

type open struct {
	id     int32
	name   string
	start  int64
	childs int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track returns a new single-writer span track named for its thread. Call
// it before the thread starts.
func (t *tracer) track(name string) *track {
	tk := &track{t: t, name: name, layers: make(map[string]*layerAgg)}
	t.tracks = append(t.tracks, tk)
	return tk
}

// beginOp starts a new operation: spans until the next beginOp share its
// id.
func (tk *track) beginOp() {
	if tk != nil {
		tk.op++
	}
}

// begin opens a span nested in the innermost open one.
func (tk *track) begin(name string) {
	if tk == nil {
		return
	}
	tk.next++
	tk.stack = append(tk.stack, open{id: tk.next, name: name, start: int64(time.Since(tk.t.epoch))})
}

// end closes the innermost open span.
func (tk *track) end() {
	if tk == nil {
		return
	}
	now := int64(time.Since(tk.t.epoch))
	o := tk.stack[len(tk.stack)-1]
	tk.stack = tk.stack[:len(tk.stack)-1]
	parent := int32(-1)
	dur := now - o.start
	if n := len(tk.stack); n > 0 {
		parent = tk.stack[n-1].id
		tk.stack[n-1].childs += dur
	}
	a := tk.layers[o.name]
	if a == nil {
		a = &layerAgg{}
		tk.layers[o.name] = a
	}
	a.Count++
	a.WallNs += dur
	a.SelfNs += dur - o.childs
	if len(tk.kept) < maxKeptSpans {
		tk.kept = append(tk.kept, span{Name: o.name, ID: o.id, Parent: parent, OpID: tk.op, Start: o.start, End: now, Self: dur - o.childs})
	}
}

// layers sums every track's aggregates by span name. Call after the
// recording threads have finished.
func (t *tracer) layers() map[string]layerAgg {
	out := make(map[string]layerAgg)
	for _, tk := range t.tracks {
		for name, a := range tk.layers {
			s := out[name]
			s.Count += a.Count
			s.WallNs += a.WallNs
			s.SelfNs += a.SelfNs
			out[name] = s
		}
	}
	return out
}

// meanSelfUs is the mean self time of the named layer's spans in µs.
func (t *tracer) meanSelfUs(name string) float64 {
	a := t.layers()[name]
	if a.Count == 0 {
		return 0
	}
	return float64(a.SelfNs) / float64(a.Count) / 1e3
}

// write exports the kept spans and the per-layer aggregates as JSON.
func (t *tracer) write(path string) error {
	type trackOut struct {
		Name  string `json:"name"`
		Spans []span `json:"spans"`
	}
	out := struct {
		Layers map[string]layerAgg `json:"layers"`
		Tracks []trackOut          `json:"tracks"`
	}{Layers: t.layers()}
	for _, tk := range t.tracks {
		out.Tracks = append(out.Tracks, trackOut{Name: tk.name, Spans: tk.kept})
	}
	sort.Slice(out.Tracks, func(i, j int) bool { return out.Tracks[i].Name < out.Tracks[j].Name })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
