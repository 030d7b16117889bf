package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// testRounds sizes each workload's fixed-rounds test run to span a few
// 100 ms meter windows, so a traced run has traced windows.
var testRounds = map[string]int{
	"pingpong-mem":     40000,
	"stream-udpatm":    600,
	"collective-vmesh": 800,
}

func runFixed(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	res, err := workloads[name](opts{seed: seed, seconds: time.Second, trace: trace, rounds: testRounds[name]})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.failed != 0 || res.attempted != int64(testRounds[name]) {
		t.Fatalf("%s: attempted %d (want %d), failed %d: %v", name, res.attempted, testRounds[name], res.failed, res.env["first_failure"])
	}
	return res
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and no failed operation.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("workload %q has no runner", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res := runFixed(t, w.Name, 3, trace)
			want, got := s.EndToEnd, res.endToEnd
			if trace {
				want, got = s.PerLayer, res.perLayer
			}
			if len(got) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(got), len(want))
			}
			byName := make(map[string]metric, len(got))
			for _, m := range got {
				byName[m.name] = m
			}
			for _, sm := range want {
				m, ok := byName[sm.Name]
				if !ok || m.unit != sm.Unit {
					t.Fatalf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, sm.Name, m, sm.Unit)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 && m.name != "trace.overhead_pct" {
					t.Fatalf("%s: metric %s = %v", w.Name, m.name, m.value)
				}
				if !trace && m.value <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.name, m.value)
				}
			}
			if line := resultLine(res, got); len(line) == 0 || line[0] != '{' {
				t.Fatalf("%s: result line %q", w.Name, line)
			}
		}
	}
}

// TestVMeshTimelineDeterministic: the virtual mesh's timeline depends only
// on the seed, not on wall-clock timing or tracing.
func TestVMeshTimelineDeterministic(t *testing.T) {
	a := runFixed(t, "collective-vmesh", 7, false).env["timeline_hash"]
	b := runFixed(t, "collective-vmesh", 7, true).env["timeline_hash"]
	if a == nil || a != b {
		t.Fatalf("same seed, different timelines: %v vs %v", a, b)
	}
}

// TestTracedSelfTimesWithinOp: within every traced operation each layer's
// self time, and their sum, stays within the operation's end-to-end time;
// for the stream, whose operation spans two threads, each layer's mean self
// time stays within the mean end-to-end latency.
func TestTracedSelfTimesWithinOp(t *testing.T) {
	for _, name := range []string{"pingpong-mem", "collective-vmesh"} {
		res := runFixed(t, name, 11, true)
		ops := 0
		for _, tk := range res.tracer.tracks {
			byOp := make(map[int64][]span)
			for _, sp := range tk.kept {
				byOp[sp.OpID] = append(byOp[sp.OpID], sp)
			}
			for _, spans := range byOp {
				var root *span
				var sum int64
				for i, sp := range spans {
					if sp.Parent == -1 && sp.Name == "op" {
						root = &spans[i]
					}
					sum += sp.Self
				}
				if root == nil {
					continue
				}
				ops++
				dur := root.End - root.Start
				for _, sp := range spans {
					if sp.Self < 0 || sp.Self > dur {
						t.Fatalf("%s: %s self time %d ns outside its op's %d ns", name, sp.Name, sp.Self, dur)
					}
				}
				if sum > dur {
					t.Fatalf("%s: layer self times sum to %d ns, op took %d ns", name, sum, dur)
				}
			}
		}
		if ops == 0 {
			t.Fatalf("%s: no traced op", name)
		}
	}

	res := runFixed(t, "stream-udpatm", 11, true)
	var p50 float64
	for _, m := range res.endToEnd {
		if m.name == "lat_p50_us" {
			p50 = m.value
		}
	}
	for name, a := range res.tracer.layers() {
		if name == "setup" || name == "core.signal_opencall" || a.Count == 0 {
			continue
		}
		if mean := float64(a.SelfNs) / float64(a.Count) / 1e3; mean > p50 {
			t.Fatalf("stream: %s mean self time %.1f us exceeds the median op latency %.1f us", name, mean, p50)
		}
	}
}
