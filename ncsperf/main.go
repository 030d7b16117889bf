// Command ncsperf is the repository's end-to-end benchmark. It runs one of
// three closed-loop workloads for a fixed time and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the seven end-to-end metrics; with
// --trace 1 they are the per-layer metrics, measured from spans the
// benchmark records around its own calls into each layer plus short side
// loops on the workload's message shapes, and the spans are written to
// .bench_build/ncsperf/. The line before the result records the run
// environment. Run it from the repository root through run.py:
//
//	python3 ncsperf/run.py --workload pingpong-mem --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// opts is what a workload receives: its seed, how long to measure, and
// whether this is the traced run.
type opts struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// rounds, when positive, replaces the time limit with a fixed
	// operation count and skips repeated setups (tests use it for
	// reproducible runs).
	rounds int
}

// result is a workload's outcome.
type result struct {
	attempted, failed int64
	endToEnd          []metric
	perLayer          []metric
	env               map[string]any
	tracer            *tracer
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(opts) (*result, error){
	"pingpong-mem":     runPingPong,
	"stream-udpatm":    runStream,
	"collective-vmesh": runVMesh,
}

// setupReps is how many complete setups each run times; setup_s is their
// median, so one slow setup (a preemption, a slow wakeup) cannot move it.
const setupReps = 41

// withSetups runs the measured session between two halves of the
// setup-only sessions, so the setups sample the machine across the whole
// run rather than one moment of it, and returns every setup time. Each
// session starts from a freshly collected heap, as in a new process, so a
// collection owed by an earlier session does not land inside a timed setup.
// A fixed-rounds run (o.rounds > 0) times only the measured session's.
func withSetups(o opts, heap *heapSampler, setupOnly func(rep int) (time.Duration, error), measured func() (time.Duration, error)) ([]time.Duration, error) {
	n := setupReps - 1
	if o.rounds > 0 {
		n = 0
	}
	var out []time.Duration
	session := func(run func() (time.Duration, error)) error {
		runtime.GC()
		d, err := run()
		if err != nil {
			return err
		}
		out = append(out, d)
		heap.sample()
		return nil
	}
	for i := 0; i < n; i++ {
		if i == n/2 {
			if err := session(measured); err != nil {
				return nil, err
			}
		}
		if err := session(func() (time.Duration, error) { return setupOnly(i) }); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		if err := session(measured); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// warmup runs the steady-state loop untimed first, so freelists, pools and
// the heap reach their working size before the window opens.
const warmup = 500 * time.Millisecond

// failures counts failed operations and typed errors raised from any
// goroutine (exception handlers run in lane engines), keeping the first
// error for the report.
type failures struct {
	mu    sync.Mutex
	n     int64
	first error
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if f.first == nil {
		f.first = err
	}
}

func (f *failures) count() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *failures) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.first
}

// exceptionHandler counts every exception a proc raises as a failed op;
// the typed failures (*core.PeerDeadError, *core.ChannelClosedError) arrive
// this way.
func (f *failures) exceptionHandler(who string) func(error) {
	return func(err error) { f.add(fmt.Errorf("%s: %w", who, err)) }
}

// newResult assembles what every workload reports: the end-to-end metrics,
// the failure count and the run environment, including the carrier, the
// open that setup_s timed, and the lane count (1 = the classic two-thread
// engine, more = sharded lanes).
func newResult(o opts, m *meter, setups []time.Duration, fail *failures, tr *tracer, attempted int64, carrier string, lanes int) *result {
	res := &result{attempted: attempted, failed: fail.count(), tracer: tr, endToEnd: m.endToEnd(setups), env: map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       o.seed,
		"seconds":    o.seconds.Seconds(),
		"trace":      o.trace,
		"carrier":    carrier,
		"open":       "Proc.OpenCall",
		"lanes":      lanes,
		"samples":    m.ops,
		"setup_reps": len(setups),
	}}
	if e := fail.err(); e != nil {
		res.env["first_failure"] = e.Error()
	}
	return res
}

func main() {
	os.Exit(run())
}

func run() int {
	wl := flag.String("workload", "", "workload: pingpong-mem, stream-udpatm or collective-vmesh")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "seconds to measure")
	tr := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok || *secs < 1 || (*tr != 0 && *tr != 1) {
		fmt.Fprintln(os.Stderr, "ncsperf: need --workload pingpong-mem|stream-udpatm|collective-vmesh, --seconds >= 1, --trace 0|1")
		return 2
	}
	// Every run must end within 180 s; a hung operation (a lost frame the
	// workload has no error control for) fails the run instead.
	watchdog := time.AfterFunc(time.Duration(*secs)*time.Second+100*time.Second, func() {
		fmt.Fprintln(os.Stderr, "ncsperf: watchdog: run did not finish")
		os.Exit(3)
	})
	defer watchdog.Stop()

	o := opts{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *tr == 1}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncsperf: %s: %v\n", *wl, err)
		return 1
	}
	ms := res.endToEnd
	if o.trace {
		ms = res.perLayer
		path := filepath.Join(".bench_build", "ncsperf", fmt.Sprintf("spans-%s-seed%d.json", *wl, *seed))
		if err := res.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "ncsperf: writing spans: %v\n", err)
			return 1
		}
		res.env["spans_file"] = path
	}
	envLine, err := json.Marshal(map[string]any{"workload": *wl, "env": res.env})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncsperf: %v\n", err)
		return 1
	}
	fmt.Println(string(envLine))
	fmt.Println(resultLine(res, ms))
	if res.failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the contract's final JSON line.
func resultLine(res *result, ms []metric) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(ms))
	for _, x := range ms {
		m[x.name] = val{x.value, x.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, m})
	if err != nil {
		panic(err) // plain structs of finite floats always marshal
	}
	return string(b)
}
