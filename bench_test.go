package repro

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/apps/fft"
	"repro/internal/apps/jpegcodec"
	"repro/internal/atm"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hostif"
	"repro/internal/mts"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/transport"
	"repro/internal/work"
)

// Table and figure benchmarks. Each regenerates one artifact of the
// paper's evaluation section; the modeled 1995 execution time is reported
// as the custom metric "modeled_s" (ns/op measures only how fast the
// simulation itself runs on this machine).

func benchTableCell(b *testing.B, run func() float64) {
	b.Helper()
	var modeled float64
	for i := 0; i < b.N; i++ {
		modeled = run()
	}
	b.ReportMetric(modeled, "modeled_s")
}

// BenchmarkTable1 regenerates Table 1 (matrix multiplication).
func BenchmarkTable1(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{1, 2, 4, 8} {
			if pl.ATM && n == 8 {
				continue // the paper reports no 8-node NYNET rows
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.MatmulP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.MatmulNCS(pl, n) })
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (JPEG pipeline).
func BenchmarkTable2(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{2, 4, 8} {
			if pl.ATM && n == 8 {
				continue
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.JPEGP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.JPEGNCS(pl, n) })
			})
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (DIF FFT).
func BenchmarkTable3(b *testing.B) {
	for _, pl := range []bench.Platform{bench.Ethernet1995(), bench.NYNET1995()} {
		for _, n := range []int{1, 2, 4, 8} {
			if pl.ATM && n == 8 {
				continue
			}
			pl, n := pl, n
			b.Run(fmt.Sprintf("%s/p4/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.FFTP4(pl, n) })
			})
			b.Run(fmt.Sprintf("%s/ncs/nodes=%d", pl.Name, n), func(b *testing.B) {
				benchTableCell(b, func() float64 { return bench.FFTNCS(pl, n) })
			})
		}
	}
}

// BenchmarkFig2Buffers regenerates Figure 2 (parallel data transfer via
// multiple I/O buffers): modeled delivery time per buffer count.
func BenchmarkFig2Buffers(b *testing.B) {
	const size = 256 * 1024
	for _, k := range []int{1, 2, 4, 8} {
		k := k
		b.Run(fmt.Sprintf("buffers=%d", k), func(b *testing.B) {
			var rows []bench.Fig2Row
			for i := 0; i < b.N; i++ {
				rows = bench.Figure2(size, []int{k})
			}
			b.ReportMetric(rows[0].Seconds*1e3, "modeled_ms")
		})
	}
}

// BenchmarkFig3Datapath regenerates Figure 3 with real memory traffic:
// ns/op here IS the result (measured copy+checksum cost on this machine),
// alongside the counted bus accesses per word.
func BenchmarkFig3Datapath(b *testing.B) {
	const size = 64 * 1024
	app := make([]byte, size)
	for i := range app {
		app[i] = byte(i)
	}
	for _, mk := range []func(int) hostif.Datapath{
		func(n int) hostif.Datapath { return hostif.NewSocketPath(n) },
		func(n int) hostif.Datapath { return hostif.NewNCSPath(n) },
	} {
		p := mk(size)
		b.Run(p.Name(), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				p.Transmit(app)
			}
			b.ReportMetric(float64(p.AccessesPerWord()), "accesses_per_word")
		})
	}
}

// BenchmarkFig4Overlap regenerates Figure 4's underlying runs (2-node
// matmul, threaded vs not) and reports the modeled times.
func BenchmarkFig4Overlap(b *testing.B) {
	pl := bench.NYNET1995()
	b.Run("p4", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.MatmulP4(pl, 2) })
	})
	b.Run("ncs", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.MatmulNCS(pl, 2) })
	})
}

// BenchmarkFig16Pipeline regenerates Figure 16's underlying runs (4-worker
// JPEG pipeline).
func BenchmarkFig16Pipeline(b *testing.B) {
	pl := bench.NYNET1995()
	b.Run("p4", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.JPEGP4(pl, 4) })
	})
	b.Run("ncs", func(b *testing.B) {
		benchTableCell(b, func() float64 { return bench.JPEGNCS(pl, 4) })
	})
}

// BenchmarkATMAPIvsP4 is experiment E8: NCS Approach 2 (HSM over the ATM
// API) against Approach 1 on the table workloads.
func BenchmarkATMAPIvsP4(b *testing.B) {
	var rows []bench.E8Row
	for i := 0; i < b.N; i++ {
		rows = bench.E8ApproachTwo()
	}
	names := []string{"hsm_speedup_matmul", "hsm_speedup_jpeg"}
	for i, r := range rows {
		if i < len(names) {
			b.ReportMetric(r.Speedup, names[i])
		}
	}
}

// BenchmarkWANSweep is the WAN extension experiment.
func BenchmarkWANSweep(b *testing.B) {
	var rows []bench.WANRow
	for i := 0; i < b.N; i++ {
		rows = bench.WANSweep()
	}
	b.ReportMetric(rows[len(rows)-1].Improvement, "impr_pct_at_15ms")
}

// BenchmarkChannelThroughput measures the channel layer end to end: one
// NCS process pair over the Mem transport runs two concurrent channels —
// a high-priority "video" class and a window-flow "bulk" class — each
// carrying b.N messages. Besides ns/op it reports per-channel throughput
// and writes BENCH_channels.json so the perf trajectory of the channel
// layer is tracked run over run (CI's bench smoke job uploads it).
func BenchmarkChannelThroughput(b *testing.B) {
	const videoSize, bulkSize = 4 << 10, 32 << 10
	mem := transport.NewMem()
	mk := func(id core.ProcID) *core.Proc {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("bench%d", id), IdleTimeout: time.Minute})
		return core.New(core.Config{ID: id, RT: rt, Endpoint: mem.Attach(id, rt)})
	}
	p0, p1 := mk(0), mk(1)
	video0 := p0.Open(1, core.ChannelConfig{ID: 1, Priority: 7})
	bulk0 := p0.Open(1, core.ChannelConfig{ID: 2, Flow: core.NewWindowFlow(8)})
	video1 := p1.Open(0, core.ChannelConfig{ID: 1, Priority: 7})
	bulk1 := p1.Open(0, core.ChannelConfig{ID: 2, Flow: core.NewWindowFlow(8)})

	videoBuf := make([]byte, videoSize)
	bulkBuf := make([]byte, bulkSize)
	p0.TCreate("video", mts.PrioDefault, func(t *core.Thread) {
		for i := 0; i < b.N; i++ {
			video0.Send(t, 0, videoBuf)
		}
	})
	p0.TCreate("bulk", mts.PrioDefault, func(t *core.Thread) {
		for i := 0; i < b.N; i++ {
			bulk0.Send(t, 1, bulkBuf)
		}
	})
	// Receivers use RecvInto (the paper's receive-into-buffer shape): the
	// payload copies into a reusable buffer and the carrier's pooled frame
	// recycles, so the measured steady state is allocation-free end to end.
	p1.TCreate("vrecv", mts.PrioDefault, func(t *core.Thread) {
		buf := make([]byte, videoSize)
		for i := 0; i < b.N; i++ {
			video1.RecvInto(t, buf, core.Any)
		}
	})
	p1.TCreate("brecv", mts.PrioDefault, func(t *core.Thread) {
		buf := make([]byte, bulkSize)
		for i := 0; i < b.N; i++ {
			bulk1.RecvInto(t, buf, core.Any)
		}
	})

	b.SetBytes(videoSize + bulkSize)
	b.ResetTimer()
	start := time.Now()
	done := make(chan struct{}, 2)
	for _, p := range []*core.Proc{p0, p1} {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	<-done
	<-done
	elapsed := time.Since(start)
	b.StopTimer()

	secs := elapsed.Seconds()
	vMBps := float64(video0.Stats().BytesSent) / 1e6 / secs
	kMBps := float64(bulk0.Stats().BytesSent) / 1e6 / secs
	b.ReportMetric(vMBps, "video_MB/s")
	b.ReportMetric(kMBps, "bulk_MB/s")

	// Control-plane accounting comes from the *receiving* end of each
	// channel — that is where credit advertisements originate. The
	// standalone-per-message share of the windowed class is the piggyback
	// protocol's headline number (1.0 was the pre-piggyback baseline: one
	// credit frame per delivery); CI gates on it so the optimization
	// cannot silently regress.
	vr, kr := video1.Stats(), bulk1.Stats()
	standalonePerMsg := func(s core.ChannelStats) float64 {
		if s.Received == 0 {
			return 0
		}
		return float64(s.CtrlStandalone) / float64(s.Received)
	}
	b.ReportMetric(standalonePerMsg(kr), "bulk_ctrl/msg")

	type chanRow struct {
		ID            int     `json:"id"`
		Class         string  `json:"class"`
		Prio          int     `json:"priority"`
		Flow          string  `json:"flow"`
		Msgs          int64   `json:"msgs"`
		Bytes         int64   `json:"bytes"`
		MBps          float64 `json:"mb_per_s"`
		CtrlStand     int64   `json:"ctrl_standalone"`
		CtrlPiggy     int64   `json:"ctrl_piggybacked"`
		CtrlStandMsgs float64 `json:"ctrl_standalone_per_msg"`
	}
	batchCalls, batchedMsgs := mem.BatchStats()
	artifact := struct {
		Bench       string    `json:"bench"`
		GoOS        string    `json:"goos"`
		GoArch      string    `json:"goarch"`
		N           int       `json:"n"`
		ElapsedNs   int64     `json:"elapsed_ns"`
		BatchCalls  int64     `json:"batch_calls"`
		BatchedMsgs int64     `json:"batched_msgs"`
		Channels    []chanRow `json:"channels"`
	}{
		Bench: "BenchmarkChannelThroughput", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		N: b.N, ElapsedNs: elapsed.Nanoseconds(),
		BatchCalls: batchCalls, BatchedMsgs: batchedMsgs,
		Channels: []chanRow{
			{ID: 1, Class: "video", Prio: 7, Flow: video0.Stats().Flow,
				Msgs: video0.Stats().Sent, Bytes: video0.Stats().BytesSent, MBps: vMBps,
				CtrlStand: vr.CtrlStandalone, CtrlPiggy: vr.CtrlPiggybacked,
				CtrlStandMsgs: standalonePerMsg(vr)},
			{ID: 2, Class: "bulk", Prio: 0, Flow: bulk0.Stats().Flow,
				Msgs: bulk0.Stats().Sent, Bytes: bulk0.Stats().BytesSent, MBps: kMBps,
				CtrlStand: kr.CtrlStandalone, CtrlPiggy: kr.CtrlPiggybacked,
				CtrlStandMsgs: standalonePerMsg(kr)},
		},
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_channels.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// meshClasses are the two traffic classes every mesh configuration runs:
// a high-priority 8 KB "prio" class and a low-priority 32 KB "bulk" class,
// both windowed.
var meshClasses = []struct {
	name string
	id   core.ChannelID
	prio int
	size int
	win  int
}{
	{name: "prio", id: 1, prio: 6, size: 8 << 10, win: 4},
	{name: "bulk", id: 2, prio: 0, size: 32 << 10, win: 8},
}

// meshClassRow is the per-class slice of one mesh run.
type meshClassRow struct {
	Class     string  `json:"class"`
	Prio      int     `json:"priority"`
	Msgs      int64   `json:"msgs"`
	Bytes     int64   `json:"bytes"`
	MBps      float64 `json:"mb_per_s"`
	CtrlStand int64   `json:"ctrl_standalone"`
	CtrlPiggy int64   `json:"ctrl_piggybacked"`
}

// meshRun is one measured (GOMAXPROCS, lane-mode) cell of the scale sweep.
type meshRun struct {
	GoMaxProcs  int            `json:"gomaxprocs"`
	Lanes       string         `json:"lanes"` // "1" (S and R threads) or "default"
	LaneCount   int            `json:"lane_count"`
	N           int            `json:"n"`
	ElapsedNs   int64          `json:"elapsed_ns"`
	AggMBps     float64        `json:"agg_mb_per_s"`
	PiggyShare  float64        `json:"piggy_share"`
	DRRRounds   int64          `json:"drr_rounds"`
	BatchCalls  int64          `json:"batch_calls"`
	BatchedMsgs int64          `json:"batched_msgs"`
	Classes     []meshClassRow `json:"classes"`
}

// meshProcs is the ring size for the scale sweep: eight processes (eight
// adjacent pairs) so there is real work to spread when GOMAXPROCS grows.
const meshProcs = 8

// runScaleMesh drives one mesh configuration: meshProcs processes in a
// ring, one channel per class per direction on every adjacent pair, b.N
// messages each way (so piggybacked control gets reverse data to ride).
// lanes is passed straight into Config.Lanes: 1 forces one lane on the
// two system threads, 0 takes the sharded default
// (min(GOMAXPROCS, 4) lanes).
func runScaleMesh(b *testing.B, lanes int) meshRun {
	const nProcs = meshProcs
	classes := meshClasses

	mem := transport.NewMem()
	procs := make([]*core.Proc, nProcs)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("mesh%d", i), IdleTimeout: time.Minute})
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt),
			Lanes: lanes,
		})
	}

	// chans[{i,j}][c] is proc i's end of class c toward neighbor j (ring:
	// each proc talks to its right and left neighbor on K channels).
	chans := make(map[[2]int][]*core.Channel)
	for i := 0; i < nProcs; i++ {
		j := (i + 1) % nProcs
		for _, cl := range classes {
			chans[[2]int{i, j}] = append(chans[[2]int{i, j}],
				procs[i].Open(core.ProcID(j), core.ChannelConfig{ID: cl.id, Priority: cl.prio, Flow: core.NewWindowFlow(cl.win)}))
			chans[[2]int{j, i}] = append(chans[[2]int{j, i}],
				procs[j].Open(core.ProcID(i), core.ChannelConfig{ID: cl.id, Priority: cl.prio, Flow: core.NewWindowFlow(cl.win)}))
		}
	}

	// Receiver threads are created first in a fixed order, so the thread
	// index a sender must address is computable: on proc i, the receiver
	// for (neighbor d, class c) is thread d*K + c.
	neighbors := func(i int) [2]int { return [2]int{(i + 1) % nProcs, (i - 1 + nProcs) % nProcs} }
	rxIdx := func(i, peer, c int) int {
		for d, j := range neighbors(i) {
			if j == peer {
				return d*len(classes) + c
			}
		}
		panic("bench: procs are not ring neighbors")
	}
	for i := 0; i < nProcs; i++ {
		for _, j := range neighbors(i) {
			for c, cl := range classes {
				cc, size := chans[[2]int{i, j}][c], cl.size
				procs[i].TCreate(fmt.Sprintf("rx%d.%d", j, c), mts.PrioDefault, func(t *core.Thread) {
					buf := make([]byte, size)
					for k := 0; k < b.N; k++ {
						cc.RecvInto(t, buf, core.Any)
					}
				})
			}
		}
	}
	for i := 0; i < nProcs; i++ {
		for _, j := range neighbors(i) {
			for c, cl := range classes {
				cc, size := chans[[2]int{i, j}][c], cl.size
				to := rxIdx(j, i, c)
				procs[i].TCreate(fmt.Sprintf("tx%d.%d", j, c), mts.PrioDefault, func(t *core.Thread) {
					buf := make([]byte, size)
					for k := 0; k < b.N; k++ {
						cc.Send(t, to, buf)
					}
				})
			}
		}
	}

	perIter := 0
	for _, cl := range classes {
		perIter += 2 * nProcs * cl.size // both directions on every pair
	}
	b.SetBytes(int64(perIter))
	b.ResetTimer()
	start := time.Now()
	done := make(chan struct{}, nProcs)
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	elapsed := time.Since(start)
	b.StopTimer()

	rows := make([]meshClassRow, len(classes))
	for c, cl := range classes {
		rows[c] = meshClassRow{Class: cl.name, Prio: cl.prio}
		for _, list := range chans {
			s := list[c].Stats()
			rows[c].Msgs += s.Sent
			rows[c].Bytes += s.BytesSent
			rows[c].CtrlStand += s.CtrlStandalone
			rows[c].CtrlPiggy += s.CtrlPiggybacked
		}
		rows[c].MBps = float64(rows[c].Bytes) / 1e6 / elapsed.Seconds()
	}
	var aggMBps float64
	var standTotal, piggyTotal int64
	for _, r := range rows {
		aggMBps += r.MBps
		standTotal += r.CtrlStand
		piggyTotal += r.CtrlPiggy
	}
	b.ReportMetric(aggMBps, "agg_MB/s")
	piggyShare := 0.0
	if total := standTotal + piggyTotal; total > 0 {
		piggyShare = float64(piggyTotal) / float64(total)
		b.ReportMetric(piggyShare, "piggy_share")
	}

	var drrRounds int64
	for _, p := range procs {
		for _, ls := range p.LaneStats() {
			drrRounds += ls.DRRRounds
		}
	}

	batchCalls, batchedMsgs := mem.BatchStats()
	laneMode := "default"
	if lanes == 1 {
		laneMode = "1"
	}
	return meshRun{
		GoMaxProcs: runtime.GOMAXPROCS(0), Lanes: laneMode,
		LaneCount: procs[0].Lanes(), N: b.N,
		ElapsedNs: elapsed.Nanoseconds(), AggMBps: aggMBps, PiggyShare: piggyShare,
		DRRRounds:  drrRounds,
		BatchCalls: batchCalls, BatchedMsgs: batchedMsgs,
		Classes: rows,
	}
}

// BenchmarkScaleMesh is the scale axis of the channel layer, swept across
// GOMAXPROCS {1,2,4,8} in two lane modes: one lane on the S and R system
// threads (lanes=1, the paper's two-system-thread model) and the
// sharded default (min(GOMAXPROCS,4) lanes). Each cell reports aggregate
// and per-class throughput plus the standalone-vs-piggybacked control
// split; the whole sweep — per-core-count MB/s, scaling efficiency
// relative to the single-core sharded run, and the sharded-vs-lane1 ratio
// at each core count — lands in BENCH_scale.json so CI tracks the
// multi-core trajectory the way BENCH_channels.json tracks the single
// pair, and gates the GOMAXPROCS=4 sharded speedup.
func BenchmarkScaleMesh(b *testing.B) {
	prevG := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevG)

	cells := make(map[string]*meshRun)
	for _, gmp := range []int{1, 2, 4, 8} {
		for _, mode := range []struct {
			name  string
			lanes int
		}{
			{name: "lane1", lanes: 1},
			{name: "sharded", lanes: 0},
		} {
			gmp, mode := gmp, mode
			key := fmt.Sprintf("gmp=%d/%s", gmp, mode.name)
			b.Run(key, func(b *testing.B) {
				runtime.GOMAXPROCS(gmp)
				defer runtime.GOMAXPROCS(prevG)
				run := runScaleMesh(b, mode.lanes)
				cells[key] = &run // last (longest) rep wins
			})
		}
	}

	// Derived metrics, all comparing cells from the same sweep so machine
	// speed cancels out. Scaling efficiency is the sharded aggregate at G
	// cores over G times the sharded single-core aggregate. The same-G
	// sharded-vs-lane1 ratios ride along for trend-watching; the gated
	// headline is GOMAXPROCS=4 sharded over *the* lane=1 baseline — the
	// paper's two-system-thread model at GOMAXPROCS=1 — which is the
	// multicore speedup the lane shard exists to buy (>= 1.5x in CI on
	// hosts with >= 4 CPUs; below that the sweep measures oversubscription,
	// not scaling).
	sweep := make([]meshRun, 0, len(cells))
	efficiency := make(map[string]float64)
	ratio := make(map[string]float64)
	base := cells["gmp=1/sharded"]
	lane1Base := cells["gmp=1/lane1"]
	for _, gmp := range []int{1, 2, 4, 8} {
		lane1 := cells[fmt.Sprintf("gmp=%d/lane1", gmp)]
		sharded := cells[fmt.Sprintf("gmp=%d/sharded", gmp)]
		for _, run := range []*meshRun{lane1, sharded} {
			if run != nil {
				sweep = append(sweep, *run)
			}
		}
		if sharded == nil {
			continue
		}
		gKey := fmt.Sprintf("g%d", gmp)
		if base != nil && base.AggMBps > 0 {
			efficiency[gKey] = sharded.AggMBps / (float64(gmp) * base.AggMBps)
		}
		if lane1 != nil && lane1.AggMBps > 0 {
			ratio[gKey] = sharded.AggMBps / lane1.AggMBps
		}
	}

	headline := cells["gmp=4/sharded"]
	if headline == nil {
		b.Fatal("scale sweep produced no gomaxprocs=4 sharded cell")
	}
	headlineRatio := 0.0
	if lane1Base != nil && lane1Base.AggMBps > 0 {
		headlineRatio = headline.AggMBps / lane1Base.AggMBps
	}

	// Piggyback parity: cross-channel coalescing exists so that sharding
	// does not trade away the paper's piggybacked control plane. The
	// sharded G4 piggy share over the lane1 G4 share is gated in CI
	// (>= 0.8x).
	piggyParity := 0.0
	if l1 := cells["gmp=4/lane1"]; l1 != nil && l1.PiggyShare > 0 {
		piggyParity = headline.PiggyShare / l1.PiggyShare
	}
	artifact := struct {
		Bench           string             `json:"bench"`
		GoOS            string             `json:"goos"`
		GoArch          string             `json:"goarch"`
		HostCPUs        int                `json:"host_cpus"`
		Procs           int                `json:"procs"`
		ChansPerDir     int                `json:"channels_per_pair"`
		N               int                `json:"n"`
		ElapsedNs       int64              `json:"elapsed_ns"`
		AggMBps         float64            `json:"agg_mb_per_s"`
		BatchCalls      int64              `json:"batch_calls"`
		BatchedMsgs     int64              `json:"batched_msgs"`
		Classes         []meshClassRow     `json:"classes"`
		Sweep           []meshRun          `json:"sweep"`
		ScalingEff      map[string]float64 `json:"scaling_efficiency_sharded"`
		ShardedVsLane1  map[string]float64 `json:"sharded_vs_lane1_same_g"`
		HeadlineG4Ratio float64            `json:"headline_g4_sharded_vs_lane1_baseline"`
		PiggyParityG4   float64            `json:"piggy_share_g4_sharded_vs_lane1"`
	}{
		// The legacy top-level fields carry the headline cell
		// (GOMAXPROCS=4, default lanes) so the run-over-run artifact diff
		// keeps a stable anchor.
		Bench: "BenchmarkScaleMesh", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		HostCPUs: runtime.NumCPU(),
		Procs:    meshProcs, ChansPerDir: len(meshClasses), N: headline.N,
		ElapsedNs: headline.ElapsedNs, AggMBps: headline.AggMBps,
		BatchCalls: headline.BatchCalls, BatchedMsgs: headline.BatchedMsgs,
		Classes: headline.Classes,
		Sweep:   sweep, ScalingEff: efficiency, ShardedVsLane1: ratio,
		HeadlineG4Ratio: headlineRatio,
		PiggyParityG4:   piggyParity,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// collRow is one measured collective configuration in BENCH_collectives.
// MemUsPerOp is real wall time on the in-process Mem mesh — bounded by the
// host's core count, since the tree's parallel hops serialize on a small
// machine. ModeledUsPerOp is virtual time over the simulated 100 Mb/s ATM
// LAN (the repo's standard modeled metric), where each workstation's link
// and CPU are modeled independently — the algorithmic critical path the
// logarithmic rewrite targets.
type collRow struct {
	Op         string  `json:"op"`
	N          int     `json:"n"`
	Shape      string  `json:"shape"` // "tree" or "linear"
	Iters      int     `json:"iters"`
	MemUsPerOp float64 `json:"mem_us_per_op"`
	MemMBps    float64 `json:"mem_mb_per_s,omitempty"`
	ModeledUs  float64 `json:"modeled_us_per_op"`
}

// simCollective measures one collective's modeled latency: n NCS processes
// over simulated TCP on the calibrated NYNET 1995 ATM LAN (the platform
// model the Table benchmarks pin) run iters operations on a pinned
// priority channel; the result is virtual microseconds per operation.
func simCollective(op string, n, fanout, iters, payload int) float64 {
	pl := bench.NYNET1995()
	eng := sim.NewEngine()
	eng.SetMaxTime(time.Hour)
	net := netsim.NewATMLAN(eng, n, pl.ATMLAN)
	cost := pl.TCP
	procs := make([]*core.Proc, n)
	for i := 0; i < n; i++ {
		node := eng.NewNode(fmt.Sprintf("cn%d", i))
		procs[i] = core.New(core.Config{
			ID: core.ProcID(i), RT: node.RT(),
			Endpoint: tcpip.NewSimTCP(node, net, i, cost),
			Compute:  work.Sim(node),
			After:    func(d time.Duration, fn func()) { eng.Schedule(d, fn) },
		})
	}
	members := make([]core.Addr, n)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i), Thread: 0}
		for j := range members {
			if i != j {
				procs[i].Open(core.ProcID(j), core.ChannelConfig{ID: 1, Priority: 6})
			}
		}
	}
	for i := 0; i < n; i++ {
		i := i
		procs[i].TCreate("m", mts.PrioDefault, func(t *core.Thread) {
			g := procs[i].NewGroup(members, core.GroupConfig{Channel: 1, Fanout: fanout})
			buf := make([]byte, payload)
			var data [][]byte
			if op == "alltoall" {
				data = make([][]byte, n)
				for j := range data {
					data[j] = make([]byte, payload)
				}
			}
			for k := 0; k < iters; k++ {
				switch op {
				case "barrier":
					g.Barrier(t)
				case "bcast":
					g.BcastInto(t, 0, buf)
				case "alltoall":
					g.AllToAll(t, data)
				}
			}
		})
	}
	eng.Run()
	return float64(time.Duration(eng.Now()).Microseconds()) / float64(iters)
}

// collProcs builds n NCS processes over one Mem mesh, each with its own
// runtime, a priority channel (ID 1, prio 6) opened pairwise, and the
// member list for a full group.
func collProcs(n int) (*transport.Mem, []*core.Proc, []core.Addr) {
	mem := transport.NewMem()
	procs := make([]*core.Proc, n)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("coll%d", i), IdleTimeout: time.Minute})
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt)})
	}
	for i := range procs {
		for j := range procs {
			if i != j {
				procs[i].Open(core.ProcID(j), core.ChannelConfig{ID: 1, Priority: 6})
			}
		}
	}
	members := make([]core.Addr, n)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i), Thread: 0}
	}
	return mem, procs, members
}

func runProcs(procs []*core.Proc) time.Duration {
	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	return time.Since(start)
}

// BenchmarkCollectives measures the collective layer end to end: barrier
// latency, broadcast throughput, and all-to-all throughput at
// N ∈ {4, 8, 16}, each in tree form (binomial, Fanout 0) and linear form
// (Fanout = N — the serial root-collected baseline), all pinned to a
// priority channel. Each configuration is measured twice: wall clock on
// the Mem mesh (real, but bounded by host cores) and modeled latency over
// the simulated ATM LAN (the repo's standard virtual-time metric, where
// the tree's parallel hops count). Results accumulate into
// BENCH_collectives.json with tree-vs-linear speedups per N, so the
// logarithmic rewrite's win is tracked run over run (CI diffs and gates
// on it).
func BenchmarkCollectives(b *testing.B) {
	const bcastSize, a2aSize = 64 << 10, 8 << 10
	// The harness invokes each sub-benchmark several times with growing
	// b.N; keep only the final (longest) measurement per configuration,
	// and run the deterministic sim once per configuration.
	rowByKey := map[string]*collRow{}
	var keys []string
	simMemo := map[string]float64{}

	measure := func(b *testing.B, op string, n, fanout int, mk func(self int) func(g *core.Group, t *core.Thread)) {
		_, procs, members := collProcs(n)
		for i := 0; i < n; i++ {
			i := i
			body := mk(i)
			procs[i].TCreate("m", mts.PrioDefault, func(t *core.Thread) {
				g := procs[i].NewGroup(members, core.GroupConfig{Channel: 1, Fanout: fanout})
				for k := 0; k < b.N; k++ {
					body(g, t)
				}
			})
		}
		b.ResetTimer()
		elapsed := runProcs(procs)
		b.StopTimer()
		shape := "tree"
		if fanout >= n {
			shape = "linear"
		}
		payload := 0
		switch op {
		case "bcast":
			payload = bcastSize
		case "alltoall":
			payload = a2aSize
		}
		key := fmt.Sprintf("%s/%d/%s", op, n, shape)
		if _, ok := simMemo[key]; !ok {
			simMemo[key] = simCollective(op, n, fanout, 10, payload)
		}
		row := collRow{Op: op, N: n, Shape: shape, Iters: b.N,
			MemUsPerOp: float64(elapsed.Microseconds()) / float64(b.N),
			ModeledUs:  simMemo[key]}
		switch op {
		case "bcast":
			// Payload bytes delivered per op: N-1 members receive the root's
			// buffer.
			row.MemMBps = float64(bcastSize*(n-1)) / 1e6 / (elapsed.Seconds() / float64(b.N))
			b.SetBytes(int64(bcastSize * (n - 1)))
		case "alltoall":
			row.MemMBps = float64(a2aSize*n*(n-1)) / 1e6 / (elapsed.Seconds() / float64(b.N))
			b.SetBytes(int64(a2aSize * n * (n - 1)))
		}
		b.ReportMetric(row.MemUsPerOp, "mem_us/op")
		b.ReportMetric(row.ModeledUs, "modeled_us/op")
		if _, ok := rowByKey[key]; !ok {
			keys = append(keys, key)
		}
		rowByKey[key] = &row
	}

	for _, n := range []int{4, 8, 16} {
		for _, shape := range []struct {
			name   string
			fanout int
		}{{"tree", 0}, {"linear", 1 << 20}} {
			n, fanout := n, shape.fanout
			b.Run(fmt.Sprintf("barrier/N=%d/%s", n, shape.name), func(b *testing.B) {
				measure(b, "barrier", n, fanout, func(int) func(*core.Group, *core.Thread) {
					return func(g *core.Group, t *core.Thread) { g.Barrier(t) }
				})
			})
			b.Run(fmt.Sprintf("bcast/N=%d/%s", n, shape.name), func(b *testing.B) {
				measure(b, "bcast", n, fanout, func(int) func(*core.Group, *core.Thread) {
					buf := make([]byte, bcastSize)
					return func(g *core.Group, t *core.Thread) { g.BcastInto(t, 0, buf) }
				})
			})
			b.Run(fmt.Sprintf("alltoall/N=%d/%s", n, shape.name), func(b *testing.B) {
				measure(b, "alltoall", n, fanout, func(int) func(*core.Group, *core.Thread) {
					data := make([][]byte, n)
					for j := range data {
						data[j] = make([]byte, a2aSize)
					}
					return func(g *core.Group, t *core.Thread) { g.AllToAll(t, data) }
				})
			})
		}
	}

	// Tree-vs-linear speedups per (op, N): the headline numbers. The
	// modeled speedup is the algorithmic claim (each workstation's link and
	// CPU modeled independently, so the tree's parallel hops count); the
	// mem_wall speedup is what this host's core count lets the wall clock
	// express. The acceptance bar for the rewrite is >= 2x modeled for
	// barrier and bcast at N=16.
	var rows []collRow
	for _, k := range keys {
		rows = append(rows, *rowByKey[k])
	}
	modeled := map[string]float64{}
	memWall := map[string]float64{}
	find := func(op string, n int, shape string) *collRow {
		return rowByKey[fmt.Sprintf("%s/%d/%s", op, n, shape)]
	}
	for _, op := range []string{"barrier", "bcast", "alltoall"} {
		for _, n := range []int{4, 8, 16} {
			tr, ln := find(op, n, "tree"), find(op, n, "linear")
			if tr != nil && ln != nil && tr.ModeledUs > 0 && tr.MemUsPerOp > 0 {
				modeled[fmt.Sprintf("%s_n%d", op, n)] = ln.ModeledUs / tr.ModeledUs
				memWall[fmt.Sprintf("%s_n%d", op, n)] = ln.MemUsPerOp / tr.MemUsPerOp
			}
		}
	}
	artifact := struct {
		Bench      string             `json:"bench"`
		GoOS       string             `json:"goos"`
		GoArch     string             `json:"goarch"`
		MaxProcs   int                `json:"gomaxprocs"`
		Rows       []collRow          `json:"rows"`
		SpeedupSim map[string]float64 `json:"tree_vs_linear_speedup_modeled"`
		SpeedupMem map[string]float64 `json:"tree_vs_linear_speedup_mem_wall"`
	}{
		Bench: "BenchmarkCollectives", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		MaxProcs: runtime.GOMAXPROCS(0),
		Rows:     rows, SpeedupSim: modeled, SpeedupMem: memWall,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_collectives.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScaleIncast is the many-to-one scale shape the ROADMAP called
// for: N senders pour windowed bulk traffic into one receiver — the
// gather/reduction arrival pattern, and the classic congestion shape. Each
// sender rides its own windowed channel; the receiver drains them from
// per-sender threads with RecvInto. BENCH_incast.json records aggregate
// and per-sender throughput (min/max spread = fairness) plus the
// control-plane split, and CI diffs it against the prior run.
func BenchmarkScaleIncast(b *testing.B) {
	const senders = 8
	const size = 32 << 10
	const window = 8

	mem := transport.NewMem()
	procs := make([]*core.Proc, senders+1)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("incast%d", i), IdleTimeout: time.Minute})
		procs[i] = core.New(core.Config{ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt)})
	}
	// Channel s+1 -> 0 per sender, windowed both ends.
	tx := make([]*core.Channel, senders)
	rx := make([]*core.Channel, senders)
	for s := 0; s < senders; s++ {
		tx[s] = procs[s+1].Open(0, core.ChannelConfig{ID: 1, Flow: core.NewWindowFlow(window)})
		rx[s] = procs[0].Open(core.ProcID(s+1), core.ChannelConfig{ID: 1, Flow: core.NewWindowFlow(window)})
	}
	for s := 0; s < senders; s++ {
		s := s
		procs[0].TCreate(fmt.Sprintf("rx%d", s), mts.PrioDefault, func(t *core.Thread) {
			buf := make([]byte, size)
			for k := 0; k < b.N; k++ {
				rx[s].RecvInto(t, buf, core.Any)
			}
		})
		procs[s+1].TCreate("tx", mts.PrioDefault, func(t *core.Thread) {
			buf := make([]byte, size)
			for k := 0; k < b.N; k++ {
				tx[s].Send(t, s, buf)
			}
		})
	}

	b.SetBytes(int64(senders * size))
	b.ResetTimer()
	elapsed := runProcs(procs)
	b.StopTimer()

	secs := elapsed.Seconds()
	type senderRow struct {
		Sender    int     `json:"sender"`
		Msgs      int64   `json:"msgs"`
		Bytes     int64   `json:"bytes"`
		MBps      float64 `json:"mb_per_s"`
		CtrlStand int64   `json:"ctrl_standalone"`
		CtrlPiggy int64   `json:"ctrl_piggybacked"`
	}
	var rows []senderRow
	var agg, minMBps, maxMBps float64
	var standTotal, piggyTotal int64
	for s := 0; s < senders; s++ {
		st, sr := tx[s].Stats(), rx[s].Stats()
		mbps := float64(st.BytesSent) / 1e6 / secs
		rows = append(rows, senderRow{Sender: s, Msgs: st.Sent, Bytes: st.BytesSent, MBps: mbps,
			CtrlStand: sr.CtrlStandalone, CtrlPiggy: sr.CtrlPiggybacked})
		agg += mbps
		if s == 0 || mbps < minMBps {
			minMBps = mbps
		}
		if mbps > maxMBps {
			maxMBps = mbps
		}
		standTotal += sr.CtrlStandalone
		piggyTotal += sr.CtrlPiggybacked
	}
	b.ReportMetric(agg, "agg_MB/s")
	if maxMBps > 0 {
		b.ReportMetric(minMBps/maxMBps, "fairness")
	}

	batchCalls, batchedMsgs := mem.BatchStats()
	artifact := struct {
		Bench       string      `json:"bench"`
		GoOS        string      `json:"goos"`
		GoArch      string      `json:"goarch"`
		Senders     int         `json:"senders"`
		MsgSize     int         `json:"msg_size"`
		Window      int         `json:"window"`
		N           int         `json:"n"`
		ElapsedNs   int64       `json:"elapsed_ns"`
		AggMBps     float64     `json:"agg_mb_per_s"`
		MinMBps     float64     `json:"min_sender_mb_per_s"`
		MaxMBps     float64     `json:"max_sender_mb_per_s"`
		CtrlStand   int64       `json:"ctrl_standalone"`
		CtrlPiggy   int64       `json:"ctrl_piggybacked"`
		BatchCalls  int64       `json:"batch_calls"`
		BatchedMsgs int64       `json:"batched_msgs"`
		PerSender   []senderRow `json:"per_sender"`
	}{
		Bench: "BenchmarkScaleIncast", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Senders: senders, MsgSize: size, Window: window, N: b.N,
		ElapsedNs: elapsed.Nanoseconds(), AggMBps: agg,
		MinMBps: minMBps, MaxMBps: maxMBps,
		CtrlStand: standTotal, CtrlPiggy: piggyTotal,
		BatchCalls: batchCalls, BatchedMsgs: batchedMsgs,
		PerSender: rows,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_incast.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Virtual-time scale sweep: N ∈ {64, 256, 1024} on one event loop ----

// scale1kRow is one (workload, N, shape) measurement of the virtual-time
// scale sweep: a purely modeled number (no wall clock — the whole mesh runs
// on one discrete-event loop) plus the run's timeline hash so CI diffs can
// see any behavioral drift, not just metric drift.
type scale1kRow struct {
	Op          string  `json:"op"`
	N           int     `json:"n"`
	Shape       string  `json:"shape,omitempty"`
	ModeledUs   float64 `json:"modeled_us_per_op,omitempty"`
	ModeledMBps float64 `json:"modeled_mb_per_s,omitempty"`
	Timeline    string  `json:"timeline"`
}

// scale1kSeed seeds every workload of the sweep; `ncsbench -experiment
// scale1k` exposes it as a flag, the checked-in artifact uses 7.
const scale1kSeed = 7

// vmeshCollectiveSim runs iters collective ops (barrier or bcast) across an
// n-proc virtual mesh on the default channel and returns modeled µs/op and
// the timeline hash. Unlike simCollective this scales to four-digit N: the
// frame-granular fabric keeps O(n) links and one event per frame.
func vmeshCollectiveSim(op string, n, fanout, iters, payload int, seed int64) (float64, string) {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{})
	members := make([]core.Addr, n)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i), Thread: 0}
	}
	for _, p := range vm.Procs {
		p := p
		p.TCreate("coll", mts.PrioDefault, func(t *core.Thread) {
			g := p.NewGroup(members, core.GroupConfig{Fanout: fanout})
			var buf []byte
			if op == "bcast" {
				buf = make([]byte, payload)
			}
			for k := 0; k < iters; k++ {
				switch op {
				case "barrier":
					g.Barrier(t)
				case "bcast":
					g.BcastInto(t, 0, buf)
				}
			}
		})
	}
	vm.Run()
	return float64(vm.Now().Nanoseconds()) / 1e3 / float64(iters), vm.TimelineHash()
}

// vmeshIncastSim pours windowed traffic from n-1 senders into proc 0 and
// returns the modeled aggregate MB/s (bounded by the receiver's downlink)
// and the timeline hash.
func vmeshIncastSim(n, msgs, size int, seed int64) (float64, string) {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{Flow: core.NewWindowFlow(8)})
	total := (n - 1) * msgs
	vm.Procs[0].TCreate("sink", mts.PrioDefault, func(t *core.Thread) {
		for k := 0; k < total; k++ {
			t.Recv(core.Any, core.Any)
		}
	})
	for i := 1; i < n; i++ {
		p := vm.Procs[i]
		p.TCreate("src", mts.PrioDefault, func(t *core.Thread) {
			payload := make([]byte, size)
			for k := 0; k < msgs; k++ {
				t.Send(0, 0, payload)
			}
		})
	}
	vm.Run()
	return float64(total*size) / 1e6 / vm.Now().Seconds(), vm.TimelineHash()
}

// vmeshRingSim drives a seeded neighbor-ring exchange (the all-lanes-busy
// mesh shape) and returns modeled aggregate MB/s and the timeline hash. The
// seed picks every payload size, so it is also the determinism probe: two
// calls with equal arguments must return identical hashes.
func vmeshRingSim(n, msgs int, seed int64) (float64, string) {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{})
	totalBytes := 0
	for i, p := range vm.Procs {
		i, p := i, p
		rng := vm.Rand(int64(i))
		sizes := make([]int, msgs)
		for k := range sizes {
			sizes[k] = 64 + rng.Intn(4096)
			totalBytes += sizes[k]
		}
		p.TCreate("ring", mts.PrioDefault, func(t *core.Thread) {
			next := core.ProcID((i + 1) % n)
			prev := core.ProcID((i - 1 + n) % n)
			for _, sz := range sizes {
				t.Send(0, next, make([]byte, sz))
			}
			for k := 0; k < msgs; k++ {
				t.Recv(core.Any, prev)
			}
		})
	}
	vm.Run()
	return float64(totalBytes) / 1e6 / vm.Now().Seconds(), vm.TimelineHash()
}

// BenchmarkScale1K is the virtual-time scale sweep the event-loop execution
// mode exists for: collectives (tree vs linear), incast, and a neighbor
// ring at N ∈ {64, 256, 1024} procs — every proc with sharded lanes, DRR,
// and coalescing — on one deterministic discrete-event loop. All metrics
// are modeled (virtual µs and MB/s); wall clock only bounds how long the
// simulation takes to compute. The headline is the tree-vs-linear
// collective advantage widening with N — ceil(log2 N) parallel hops against
// N-1 serialized ones — which BENCH_collectives.json can only show to
// N=16 because its Mem mesh needs a live goroutine per lane. The N=256 ring
// runs twice and the benchmark fails if the two timeline hashes differ: the
// determinism contract is part of the measurement, not a separate test.
// Results accumulate into BENCH_scale1k.json (CI diffs it and gates the
// N=256 speedups).
func BenchmarkScale1K(b *testing.B) {
	const bcastSize, incastSize, incastMsgs, ringMsgs = 16 << 10, 8 << 10, 4, 4
	sizes := []int{64, 256, 1024}
	// Fewer collective iterations at the largest N: dissemination barriers
	// cost n·log2(n) messages per op, and modeled values are averages, not
	// samples, so a handful of iterations suffices.
	itersFor := func(n int) int {
		if n >= 1024 {
			return 4
		}
		return 8
	}
	// The harness reruns sub-benchmarks with growing b.N; the sims are
	// deterministic, so run each configuration once and memoize.
	rowByKey := map[string]*scale1kRow{}
	var keys []string
	record := func(key string, row scale1kRow) *scale1kRow {
		if _, ok := rowByKey[key]; !ok {
			keys = append(keys, key)
			rowByKey[key] = &row
		}
		return rowByKey[key]
	}

	for _, n := range sizes {
		n := n
		for _, shape := range []struct {
			name   string
			fanout int
		}{{"tree", 0}, {"linear", 1 << 20}} {
			shape := shape
			for _, op := range []string{"barrier", "bcast"} {
				op := op
				b.Run(fmt.Sprintf("%s/N=%d/%s", op, n, shape.name), func(b *testing.B) {
					key := fmt.Sprintf("%s/%d/%s", op, n, shape.name)
					row, ok := rowByKey[key]
					if !ok {
						payload := 0
						if op == "bcast" {
							payload = bcastSize
						}
						us, tl := vmeshCollectiveSim(op, n, shape.fanout, itersFor(n), payload, scale1kSeed)
						row = record(key, scale1kRow{Op: op, N: n, Shape: shape.name, ModeledUs: us, Timeline: tl})
					}
					b.ReportMetric(row.ModeledUs, "modeled_us/op")
					b.ReportMetric(0, "ns/op")
				})
			}
		}
		b.Run(fmt.Sprintf("incast/N=%d", n), func(b *testing.B) {
			key := fmt.Sprintf("incast/%d", n)
			row, ok := rowByKey[key]
			if !ok {
				mbps, tl := vmeshIncastSim(n, incastMsgs, incastSize, scale1kSeed)
				row = record(key, scale1kRow{Op: "incast", N: n, ModeledMBps: mbps, Timeline: tl})
			}
			b.ReportMetric(row.ModeledMBps, "modeled_mb/s")
			b.ReportMetric(0, "ns/op")
		})
		b.Run(fmt.Sprintf("mesh/N=%d", n), func(b *testing.B) {
			key := fmt.Sprintf("mesh/%d", n)
			row, ok := rowByKey[key]
			if !ok {
				mbps, tl := vmeshRingSim(n, ringMsgs, scale1kSeed)
				if n == 256 {
					// Determinism gate at the acceptance scale: same seed,
					// byte-identical timeline.
					if _, tl2 := vmeshRingSim(n, ringMsgs, scale1kSeed); tl2 != tl {
						b.Fatalf("virtual mesh nondeterministic at N=%d:\n  run1 %s\n  run2 %s", n, tl, tl2)
					}
				}
				row = record(key, scale1kRow{Op: "mesh", N: n, ModeledMBps: mbps, Timeline: tl})
			}
			b.ReportMetric(row.ModeledMBps, "modeled_mb/s")
			b.ReportMetric(0, "ns/op")
		})
	}

	var rows []scale1kRow
	for _, k := range keys {
		rows = append(rows, *rowByKey[k])
	}
	speedup := map[string]float64{}
	for _, op := range []string{"barrier", "bcast"} {
		for _, n := range sizes {
			tr := rowByKey[fmt.Sprintf("%s/%d/tree", op, n)]
			ln := rowByKey[fmt.Sprintf("%s/%d/linear", op, n)]
			if tr != nil && ln != nil && tr.ModeledUs > 0 {
				speedup[fmt.Sprintf("%s_n%d", op, n)] = ln.ModeledUs / tr.ModeledUs
			}
		}
	}
	meshHash := ""
	if r := rowByKey["mesh/256"]; r != nil {
		meshHash = r.Timeline
	}
	artifact := struct {
		Bench       string             `json:"bench"`
		GoOS        string             `json:"goos"`
		GoArch      string             `json:"goarch"`
		Seed        int64              `json:"seed"`
		Rows        []scale1kRow       `json:"rows"`
		SpeedupSim  map[string]float64 `json:"tree_vs_linear_speedup_modeled"`
		DetHashN256 string             `json:"determinism_timeline_mesh_n256"`
	}{
		Bench: "BenchmarkScale1K", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Seed: scale1kSeed, Rows: rows, SpeedupSim: speedup, DetHashN256: meshHash,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_scale1k.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// churnSim runs a 256-proc signaled-channel churn on the virtual-time
// mesh: every proc repeatedly dials its ring successor through a shared
// token-bucket admission policy deliberately tighter (burst 32) than the
// opening storm (256 simultaneous first dials), transfers a couple of
// messages, and closes with the full RELEASE handshake. It returns the
// modeled setup-latency distribution over successful handshakes, the
// admission rejection rate, churn throughput in channels per modeled
// second, the total leaked-state count across all procs (zero or the
// lifecycle is broken), and the run's timeline hash.
func churnSim(n, cycles, msgs int, seed int64) (latencies []float64, rejRate float64, chansPerSec float64, opens int64, leaks int, timeline string) {
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{
		Lanes:     2,
		Admission: core.NewTokenBucketAdmission(100_000, 32),
		OnAccept: func(c *core.Channel) {
			c.Proc().TCreate("serve", mts.PrioDefault, func(th *core.Thread) {
				opener := c.PeerThread()
				c.Send(th, opener, []byte{0})
				for k := 0; k < msgs; k++ {
					c.Recv(th, core.Any)
				}
				c.Send(th, opener, []byte{1})
			})
		},
	})
	for i := 0; i < n; i++ {
		i := i
		p := vm.Procs[i]
		p.TCreate("keeper", mts.PrioDefault, func(th *core.Thread) { th.Recv(core.Any, core.Any) })
		p.TCreate("dial", mts.PrioDefault, func(th *core.Thread) {
			peer := core.ProcID((i + 1) % n)
			rng := vm.Rand(int64(i))
			for cyc := 0; cyc < cycles; cyc++ {
				var ch *core.Channel
				for ch == nil {
					start := vm.Now()
					c, err := p.OpenCall(th, peer, core.CallConfig{
						Flow:  core.NewWindowFlow(4),
						Error: core.NewGoBackN(8, 2*time.Millisecond),
					})
					if err != nil {
						continue // admission rejection; the wire round trip paces the retry
					}
					latencies = append(latencies, float64(vm.Now()-start)/float64(time.Microsecond))
					ch = c
				}
				// Announce/serve rendezvous: the server's first message
				// carries its thread index in the source address.
				_, from := ch.Recv(th, core.Any)
				for k := 0; k < msgs; k++ {
					buf := make([]byte, 1+rng.Intn(256))
					buf[0] = byte(k)
					ch.Send(th, from.Thread, buf)
				}
				ch.Recv(th, core.Any)
				if err := ch.CloseCall(th); err != nil {
					panic(err)
				}
			}
			th.Send(0, peer, []byte("bye"))
		})
	}
	vm.Run()
	var opened, setups, rejected int64
	for _, p := range vm.Procs {
		leaks += len(p.Leaks())
		st := p.Lifecycle()
		opened += st.Opened
		setups += st.SetupsSent
		rejected += st.SetupsRejected
	}
	if setups > 0 {
		rejRate = float64(rejected) / float64(setups)
	}
	if secs := vm.Now().Seconds(); secs > 0 {
		chansPerSec = float64(opened/2) / secs // each channel opens on both ends
	}
	return latencies, rejRate, chansPerSec, opened / 2, leaks, vm.TimelineHash()
}

func percentileUs(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// BenchmarkChurn is the control-plane benchmark: 256 procs × 4 signaled
// calls each (1024 full open/transfer/close cycles) under admission
// overload, on the deterministic virtual-time mesh. It reports the modeled
// SETUP→CONNECT latency distribution, the churn rate, and the admission
// rejection rate; the run is repeated from the same seed and fails on any
// timeline divergence, and any leaked lifecycle state fails it outright.
// Results persist to BENCH_churn.json (CI diffs the snapshot and gates on
// zero leaks plus a nonzero rejection rate).
func BenchmarkChurn(b *testing.B) {
	const n, cycles, msgs, seed = 256, 4, 2, 7
	lat, rejRate, cps, opens, leaks, tl := churnSim(n, cycles, msgs, seed)
	if leaks != 0 {
		b.Fatalf("churn leaked %d lifecycle entries", leaks)
	}
	if rejRate == 0 {
		b.Fatal("admission rejected nothing: the churn never overloaded the bucket")
	}
	if _, _, _, _, _, tl2 := churnSim(n, cycles, msgs, seed); tl2 != tl {
		b.Fatalf("churn nondeterministic:\n  run1 %s\n  run2 %s", tl, tl2)
	}
	sort.Float64s(lat)
	p50 := percentileUs(lat, 0.50)
	p99 := percentileUs(lat, 0.99)
	b.ReportMetric(p50, "setup_p50_modeled_us")
	b.ReportMetric(p99, "setup_p99_modeled_us")
	b.ReportMetric(cps, "modeled_chans/s")
	b.ReportMetric(rejRate, "rejection_rate")
	b.ReportMetric(0, "ns/op")

	artifact := struct {
		Bench         string  `json:"bench"`
		GoOS          string  `json:"goos"`
		GoArch        string  `json:"goarch"`
		Seed          int64   `json:"seed"`
		Procs         int     `json:"procs"`
		Channels      int64   `json:"channels"`
		SetupP50Us    float64 `json:"setup_latency_p50_modeled_us"`
		SetupP99Us    float64 `json:"setup_latency_p99_modeled_us"`
		ChansPerSec   float64 `json:"channels_per_modeled_sec"`
		RejectionRate float64 `json:"rejection_rate"`
		Leaks         int     `json:"leaks"`
		Timeline      string  `json:"determinism_timeline"`
	}{
		Bench: "BenchmarkChurn", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Seed: seed, Procs: n, Channels: opens,
		SetupP50Us: p50, SetupP99Us: p99,
		ChansPerSec: cps, RejectionRate: rejRate, Leaks: leaks, Timeline: tl,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_churn.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// faultsSim is one deterministic kill experiment: n-1 observers each hold
// a warmed channel to the victim and park on a targeted receive; the
// victim is killed at killAt on the virtual clock; every observer's
// failure detector declares it independently and the failure sweep
// unblocks the parked receive with the typed error. Each observer's
// wakeup instant minus killAt is one detection-latency sample (detection
// and fail-fast teardown are the same sweep, so the sample covers both).
func faultsSim(n int, hb core.Heartbeat, killAt time.Duration, seed int64) (latencies []float64, typed int, leaks int, timeline string) {
	victim := core.ProcID(n - 1)
	vm := core.NewVirtualMesh(n, seed, core.VirtualMeshConfig{
		Heartbeat: hb,
		MaxTime:   time.Second,
	})
	vm.Eng.Schedule(killAt, func() { vm.Net.KillHost(int(victim)) })
	recoverTyped := func(fn func()) bool {
		ok := false
		func() {
			defer func() {
				if r := recover(); r != nil {
					var pd *core.PeerDeadError
					if err, is := r.(error); !is || !errors.As(err, &pd) {
						panic(r)
					}
					ok = true
				}
			}()
			fn()
		}()
		return ok
	}
	for i := 0; i < n-1; i++ {
		i := i
		rng := vm.Rand(int64(i))
		vm.Procs[i].TCreate("obs", mts.PrioDefault, func(th *core.Thread) {
			th.Send(0, victim, make([]byte, 64+rng.Intn(512)))
			th.Recv(core.Any, victim) // ack: the pair is now mutually monitored
			if recoverTyped(func() { th.Recv(core.Any, victim) }) {
				latencies = append(latencies, float64(vm.Now()-killAt)/float64(time.Microsecond))
				typed++
			}
		})
	}
	vm.Procs[victim].TCreate("victim", mts.PrioDefault, func(th *core.Thread) {
		for k := 0; k < n-1; k++ {
			_, from := th.Recv(core.Any, core.Any)
			th.Send(from.Thread, from.Proc, []byte{1})
		}
		if recoverTyped(func() { th.Recv(core.Any, 0) }) {
			typed++
		}
	})
	vm.Run()
	for _, p := range vm.Procs {
		leaks += len(p.Leaks())
	}
	return latencies, typed, leaks, vm.TimelineHash()
}

// BenchmarkFaults is the failure-domain benchmark: 64 procs on the
// virtual-time mesh, every observer channel-attached to one victim, the
// victim killed mid-run. It reports the modeled detection latency
// distribution (kill to typed wakeup, which includes the fail-fast
// teardown sweep) and gates on the detector's contract: every waiter
// unblocked with the typed error, p99 within the (Misses+1)*Interval
// bound plus one tick of scheduling slop, zero lifecycle leaks, and a
// byte-identical timeline on a same-seed rerun. Results persist to
// BENCH_faults.json for the CI snapshot/diff pipeline.
func BenchmarkFaults(b *testing.B) {
	const n, seed = 64, 7
	hb := core.Heartbeat{Interval: time.Millisecond, Misses: 3}
	const killAt = 5 * time.Millisecond
	boundUs := float64((time.Duration(hb.Misses+2) * hb.Interval) / time.Microsecond)
	lat, typed, leaks, tl := faultsSim(n, hb, killAt, seed)
	if leaks != 0 {
		b.Fatalf("fault teardown leaked %d lifecycle entries", leaks)
	}
	if typed != n {
		b.Fatalf("typed deaths = %d, want %d (every waiter must unblock with *PeerDeadError)", typed, n)
	}
	if _, _, _, tl2 := faultsSim(n, hb, killAt, seed); tl2 != tl {
		b.Fatalf("kill suite nondeterministic:\n  run1 %s\n  run2 %s", tl, tl2)
	}
	sort.Float64s(lat)
	p50 := percentileUs(lat, 0.50)
	p99 := percentileUs(lat, 0.99)
	if p99 > boundUs {
		b.Fatalf("detection p99 %.0fµs exceeds the modeled bound %.0fµs", p99, boundUs)
	}
	b.ReportMetric(p50, "detect_p50_modeled_us")
	b.ReportMetric(p99, "detect_p99_modeled_us")
	b.ReportMetric(float64(typed), "typed_deaths")
	b.ReportMetric(0, "ns/op")

	artifact := struct {
		Bench       string  `json:"bench"`
		GoOS        string  `json:"goos"`
		GoArch      string  `json:"goarch"`
		Seed        int64   `json:"seed"`
		Procs       int     `json:"procs"`
		IntervalUs  float64 `json:"heartbeat_interval_us"`
		Misses      int     `json:"heartbeat_misses"`
		DetectP50Us float64 `json:"detect_latency_p50_modeled_us"`
		DetectP99Us float64 `json:"detect_latency_p99_modeled_us"`
		BoundUs     float64 `json:"detect_latency_bound_modeled_us"`
		TypedDeaths int     `json:"typed_deaths"`
		Leaks       int     `json:"leaks"`
		Timeline    string  `json:"determinism_timeline"`
	}{
		Bench: "BenchmarkFaults", GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Seed: seed, Procs: n,
		IntervalUs: float64(hb.Interval) / float64(time.Microsecond), Misses: hb.Misses,
		DetectP50Us: p50, DetectP99Us: p99, BoundUs: boundUs,
		TypedDeaths: typed, Leaks: leaks, Timeline: tl,
	}
	blob, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_faults.json", append(blob, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// --- Micro-benchmarks of the substrates (real work, real ns/op) ---------

// BenchmarkAAL5Segment measures cell segmentation throughput.
func BenchmarkAAL5Segment(b *testing.B) {
	payload := make([]byte, 8192)
	vc := atm.VC{VCI: 100}
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := atm.Segment(vc, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAAL5Reassemble measures the receive path incl. CRC verify.
func BenchmarkAAL5Reassemble(b *testing.B) {
	payload := make([]byte, 8192)
	vc := atm.VC{VCI: 100}
	cells, _ := atm.Segment(vc, payload)
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := atm.Reassemble(vc, cells); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContextSwitch measures one NCS_MTS cooperative switch.
func BenchmarkContextSwitch(b *testing.B) {
	rt := mts.New(mts.Config{Name: "bench"})
	stop := false
	for i := 0; i < 2; i++ {
		rt.Create("spinner", mts.PrioDefault, func(t *mts.Thread) {
			for !stop {
				t.Yield()
			}
		})
	}
	b.ResetTimer()
	go func() {
		// Each Dispatch is one switch; run b.N of them.
	}()
	for i := 0; i < b.N; i++ {
		rt.Dispatch()
	}
	b.StopTimer()
	stop = true
	for rt.HasRunnable() {
		rt.Dispatch()
	}
}

// BenchmarkMemTransportRoundtrip measures message marshal+deliver latency
// through the real-mode in-process transport.
func BenchmarkMemTransportRoundtrip(b *testing.B) {
	mem := transport.NewMem()
	rtA := mts.New(mts.Config{Name: "a", IdleTimeout: time.Minute})
	rtB := mts.New(mts.Config{Name: "b", IdleTimeout: time.Minute})
	epA := mem.Attach(0, rtA)
	epB := mem.Attach(1, rtB)
	payload := make([]byte, 1024)

	b.SetBytes(int64(len(payload)))
	var echo, waiter *mts.Thread
	epB.SetHandler(func(m *transport.Message) { rtB.Unblock(echo, false) })
	epA.SetHandler(func(m *transport.Message) { rtA.Unblock(waiter, false) })
	echo = rtB.Create("echo", mts.PrioDefault, func(t *mts.Thread) {
		for i := 0; i < b.N; i++ {
			t.Park("req")
			epB.Send(t, &transport.Message{From: 1, To: 0, Data: payload})
		}
	})
	waiter = rtA.Create("driver", mts.PrioDefault, func(t *mts.Thread) {
		for i := 0; i < b.N; i++ {
			epA.Send(t, &transport.Message{From: 0, To: 1, Data: payload})
			t.Park("resp")
		}
	})
	b.ResetTimer()
	done := make(chan struct{}, 2)
	go func() { rtA.Run(); done <- struct{}{} }()
	go func() { rtB.Run(); done <- struct{}{} }()
	<-done
	<-done
}

// BenchmarkDCTBlock measures the 8x8 forward DCT.
func BenchmarkDCTBlock(b *testing.B) {
	var src, dst jpegcodec.Block
	for i := range src {
		src[i] = float64(i%255) - 128
	}
	for i := 0; i < b.N; i++ {
		jpegcodec.FDCT(&src, &dst)
	}
}

// BenchmarkJPEGEncode measures the full codec on a 128x128 tile.
func BenchmarkJPEGEncode(b *testing.B) {
	img := jpegcodec.Synthetic(128, 128)
	b.SetBytes(int64(len(img.Pix)))
	for i := 0; i < b.N; i++ {
		jpegcodec.Encode(img, 75)
	}
}

// BenchmarkFFTKernel measures the 512-point transform the paper's Table 3
// distributes.
func BenchmarkFFTKernel(b *testing.B) {
	x := fft.RandomSignal(512, 1)
	buf := make([]complex128, len(x))
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		fft.Forward(buf)
	}
}
