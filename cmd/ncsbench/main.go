// Command ncsbench regenerates the paper's evaluation: Tables 1-3 and the
// reproducible figures, printed side by side with the published numbers.
//
// Usage:
//
//	ncsbench -experiment all          # everything (default)
//	ncsbench -experiment table1       # matrix multiplication
//	ncsbench -experiment table2       # JPEG pipeline
//	ncsbench -experiment table3       # FFT
//	ncsbench -experiment fig2         # multiple I/O buffers
//	ncsbench -experiment fig3         # datapath bus accesses
//	ncsbench -experiment fig4         # matmul overlap timeline
//	ncsbench -experiment fig16        # JPEG processor-state timeline
//	ncsbench -experiment atmapi       # E8: Approach 2 (HSM) vs Approach 1
//	ncsbench -experiment wan          # extra: NYNET WAN (DS-3 trunk) sweep
//	ncsbench -experiment mesh         # live channel mesh (-laneskew, -weights)
//	ncsbench -experiment scale1k      # virtual-time scale sweep (-n, -seed)
//
// All table/figure numbers are produced by the virtual-time discrete-event
// simulation described in DESIGN.md; absolute seconds are calibrated to the
// paper's 1-node columns, every other cell is model output.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (all, table1, table2, table3, fig2, fig3, fig4, fig16, atmapi, wan, mesh)")
	mutexProfile := flag.String("mutexprofile", "", "write a mutex-contention profile to this file (lane mu hot spots)")
	blockProfile := flag.String("blockprofile", "", "write a blocking profile to this file (ring sleeps, scheduler waits)")
	laneSkew := flag.Bool("laneskew", false, "mesh: route every channel to lane 0 (a single hot lane; placement is fixed at open, so it stays hot)")
	weights := flag.String("weights", "", "mesh: comma-separated DRR weights assigned round-robin to the channels (default priority+1)")
	meshN := flag.Int("n", 1024, "scale1k: number of procs on the virtual-time event loop")
	seed := flag.Int64("seed", 7, "scale1k: workload seed (same -n and -seed reproduce every timeline hash byte for byte)")
	flag.Parse()

	// Contention profiling for the sharded hot path: the lane engines
	// synchronize on per-lane mutexes and MPSC ring wakeups, so when a
	// lane count or GOMAXPROCS change shifts throughput, these two
	// profiles say whether lock contention or blocking hand-offs moved.
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		defer writeProfile("mutex", *mutexProfile)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(int(100 * time.Microsecond))
		defer writeProfile("block", *blockProfile)
	}

	runners := map[string]func(){
		"table1":   table1,
		"table2":   table2,
		"table3":   table3,
		"fig2":     fig2,
		"fig3":     fig3,
		"fig4":     fig4,
		"fig16":    fig16,
		"atmapi":   atmapi,
		"wan":      wan,
		"ablation": ablation,
		"micro":    micro,
		"mesh":     func() { mesh(*laneSkew, *weights) },
		"scale1k":  func() { scale1k(*meshN, *seed) },
	}
	order := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig16", "atmapi", "wan", "ablation", "micro", "mesh", "scale1k"}

	if *experiment == "all" {
		for _, name := range order {
			runners[name]()
			fmt.Println()
		}
		return
	}
	run, ok := runners[*experiment]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; choose one of: all %s\n", *experiment, strings.Join(order, " "))
		os.Exit(2)
	}
	run()
}

// writeProfile dumps one named pprof profile, complaining to stderr rather
// than failing the run — the experiment output already printed.
func writeProfile(name, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ncsbench: %s profile: %v\n", name, err)
		return
	}
	defer f.Close()
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "ncsbench: %s profile: %v\n", name, err)
	}
}

func table1() {
	eth := bench.Ethernet1995()
	ny := bench.NYNET1995()
	fmt.Print(bench.RenderTable("Table 1 — matrix multiplication 128x128 (seconds), Ethernet",
		bench.Table1(eth, []int{1, 2, 4, 8}), bench.PaperTable1Ethernet))
	fmt.Println()
	fmt.Print(bench.RenderTable("Table 1 — matrix multiplication 128x128 (seconds), NYNET",
		bench.Table1(ny, []int{1, 2, 4}), bench.PaperTable1NYNET))
}

func table2() {
	eth := bench.Ethernet1995()
	ny := bench.NYNET1995()
	fmt.Print(bench.RenderTable("Table 2 — JPEG pipeline, 600 KB image (seconds), Ethernet",
		bench.Table2(eth, []int{2, 4, 8}), bench.PaperTable2Ethernet))
	fmt.Println()
	fmt.Print(bench.RenderTable("Table 2 — JPEG pipeline, 600 KB image (seconds), NYNET",
		bench.Table2(ny, []int{2, 4}), bench.PaperTable2NYNET))
}

func table3() {
	eth := bench.Ethernet1995()
	ny := bench.NYNET1995()
	fmt.Print(bench.RenderTable("Table 3 — DIF FFT, M=512, 8 sets (seconds), Ethernet",
		bench.Table3(eth, []int{1, 2, 4, 8}), bench.PaperTable3Ethernet))
	fmt.Println()
	fmt.Print(bench.RenderTable("Table 3 — DIF FFT, M=512, 8 sets (seconds), NYNET",
		bench.Table3(ny, []int{1, 2, 4}), bench.PaperTable3NYNET))
}

func fig2() {
	const size = 256 * 1024
	fmt.Print(bench.RenderFig2(bench.Figure2(size, []int{1, 2, 4, 8}), size))
}

func fig3() {
	const size = 64 * 1024
	fmt.Print(bench.RenderFig3(bench.Figure3(size, 200), size))
}

func fig4() { fmt.Print(bench.Figure4()) }

func fig16() { fmt.Print(bench.Figure16()) }

func atmapi() { fmt.Print(bench.RenderE8(bench.E8ApproachTwo())) }

func wan() { fmt.Print(bench.RenderWAN(bench.WANSweep())) }

func micro() {
	fmt.Print(bench.RenderMicro(bench.MicroSweep([]int{64, 1024, 8192, 65536, 262144})))
}

func ablation() {
	fmt.Print(bench.RenderAblation("Ablation — matmul(4 nodes) vs communication share (Ethernet)",
		bench.AblationCommScale([]float64{1, 2, 5, 10})))
	fmt.Println()
	fmt.Print(bench.RenderAblation("Ablation — matmul(4 nodes) vs threads/process (NYNET, comm x4)",
		bench.AblationThreads([]int{1, 2, 4})))
	fmt.Println()
	fmt.Print(bench.RenderAblation("Ablation — FFT(4 nodes) vs p4 poll quantum (NYNET)",
		bench.AblationPollQuantum([]time.Duration{0, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond})))
	fmt.Println()
	fmt.Print(bench.RenderAblation("Ablation — HSM matmul(4 nodes) vs SBA-200 buffer count",
		bench.AblationBuffers([]int{1, 2, 4, 8})))
	fmt.Println()
	// Real Ethernet's slot time is 51.2 µs; a few slots per backoff is the
	// physical regime.
	fmt.Print(bench.RenderAblation("Ablation — JPEG(8 nodes) vs Ethernet contention slot",
		bench.AblationContention([]time.Duration{0, 51200 * time.Nanosecond, 256 * time.Microsecond, time.Millisecond})))
}
