package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/udpatm"
	"repro/internal/wire"
)

// layerMetrics holds the per-layer figures a workload measured from the
// layers' public counters during its traced run; metrics adds the
// span-derived figures and the side loops, which run only in the traced
// run so they cannot perturb the end-to-end numbers. A layer a workload
// does not exercise reports 0.
type layerMetrics struct {
	switchesPerOp float64 // mts
	piggyShare    float64 // core: control words piggybacked / all control words
	standalonePer float64 // core: standalone control frames per data message
	drrPerOp      float64 // core lanes
	migrations    float64 // core lanes
	cellsPerMsg   float64 // atm, from the carrier's cell counter; 0 = from the shape
	cellsPerTrain float64 // udpatm
	trainsPerMsg  float64 // udpatm
	recvDropped   float64 // udpatm
	msgsPerBatch  float64 // transport Mem
	modelUsPerOp  float64 // sim, modeled 1995 NYNET time
	overheadPct   float64 // traced vs untraced median latency

	// sideLoopPayload is the workload's message payload size: the wire
	// and atm side loops encode, segment and reassemble that shape.
	sideLoopPayload int
}

func (l layerMetrics) metrics(tr *tracer) []metric {
	switchNs := mtsSwitchNs()
	enc, dec, allocs := wireLoop(l.sideLoopPayload)
	seg, reasm, cells := atmLoop(l.sideLoopPayload)
	if l.cellsPerMsg == 0 {
		l.cellsPerMsg = float64(cells)
	}
	return []metric{
		{"mts.switches_per_op", l.switchesPerOp, "count/op"},
		{"mts.switch_ns", switchNs, "ns"},
		{"core.send_us", tr.meanSelfUs("core.send"), "us"},
		{"core.recv_wait_us", tr.meanSelfUs("core.recv_wait"), "us"},
		{"core.ctrl_standalone_per_msg", l.standalonePer, "count/msg"},
		{"core.piggy_share", l.piggyShare, "ratio"},
		{"core.drr_rounds_per_op", l.drrPerOp, "count/op"},
		{"core.migrations", l.migrations, "count"},
		{"core.coll_barrier_us", tr.meanSelfUs("core.coll_barrier"), "us"},
		{"core.coll_bcast_us", tr.meanSelfUs("core.coll_bcast"), "us"},
		{"core.signal_opencall_us", tr.meanSelfUs("core.signal_opencall"), "us"},
		{"wire.encode_ns", enc, "ns"},
		{"wire.decode_ns", dec, "ns"},
		{"wire.allocs_per_msg", allocs, "count/msg"},
		{"atm.segment_us_per_msg", seg, "us"},
		{"atm.reassemble_us_per_msg", reasm, "us"},
		{"atm.cells_per_msg", l.cellsPerMsg, "count/msg"},
		{"udpatm.cells_per_train", l.cellsPerTrain, "count"},
		{"udpatm.trains_per_msg", l.trainsPerMsg, "count/msg"},
		{"udpatm.recv_dropped", l.recvDropped, "count"},
		{"transport.msgs_per_batch", l.msgsPerBatch, "count"},
		{"sim.model_us_per_op", l.modelUsPerOp, "us-modeled"},
		{"trace.overhead_pct", l.overheadPct, "%"},
	}
}

// sideLoopIters scales a side loop to about 50 MB of payload, at least 200
// iterations.
func sideLoopIters(payload int) int {
	n := 50 << 20 / (payload + 64)
	if n < 200 {
		n = 200
	}
	return n
}

// mtsSwitchNs times mts context switches: two threads of one runtime
// yielding to each other.
func mtsSwitchNs() float64 {
	const yields = 20000
	rt := mts.New(mts.Config{Name: "switch", IdleTimeout: 10 * time.Second})
	for i := 0; i < 2; i++ {
		rt.Create(fmt.Sprintf("y%d", i), mts.PrioDefault, func(t *mts.Thread) {
			for k := 0; k < yields; k++ {
				t.Yield()
			}
		})
	}
	start := time.Now()
	rt.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(rt.Switches())
}

// sideMessage is a data message of the workload's shape, carrying a
// piggybacked credit as the windowed workloads' messages do.
func sideMessage(payload int) *wire.Message {
	return &wire.Message{From: 0, To: 1, ToThread: 1, Channel: 1, Seq: 7,
		HasCredit: true, Credit: 42, Data: make([]byte, payload)}
}

// wireLoop times MarshalAppend and Unmarshal on the workload's message
// shape and counts the allocations of one encode+decode.
func wireLoop(payload int) (encNs, decNs, allocs float64) {
	m := sideMessage(payload)
	n := sideLoopIters(payload)
	buf := make([]byte, 0, m.WireSize())
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = m.MarshalAppend(buf[:0])
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := wire.Unmarshal(buf); err != nil {
			panic(err) // encoded just above by the codec itself
		}
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	const k = 100
	for i := 0; i < k; i++ {
		buf = m.MarshalAppend(buf[:0])
		_, _ = wire.Unmarshal(buf) // decoded without error in the timed loop above
	}
	runtime.ReadMemStats(&ms)
	return encNs, decNs, float64(ms.Mallocs-before) / k
}

// atmFrames splits the workload's message into the chunk frames udpatm
// segments into AAL5 PDUs.
func atmFrames(payload int) [][]byte {
	m := sideMessage(payload)
	enc := m.MarshalAppend(nil)
	ck := wire.NewChunker(enc, m.Seq, udpatm.MaxChunk)
	var frames [][]byte
	for {
		c, ok := ck.Next(nil)
		if !ok {
			return frames
		}
		frames = append(frames, c)
	}
}

// atmLoop times AAL5 segmentation (AppendCells) and reassembly
// (DecodeCell + Reassembler.Push) of one message's frames, and counts its
// cells.
func atmLoop(payload int) (segUs, reasmUs float64, cells int) {
	frames := atmFrames(payload)
	vc := udpatm.VCForChan(0, 1, 1)
	for _, f := range frames {
		cells += atm.CellCount(len(f))
	}
	n := sideLoopIters(payload)
	dst := make([]byte, 0, cells*atm.CellSize)
	start := time.Now()
	for i := 0; i < n; i++ {
		dst = dst[:0]
		for _, f := range frames {
			var err error
			if dst, err = atm.AppendCells(dst, vc, f); err != nil {
				panic(err) // frames are at most MaxChunk+header, far below the AAL5 limit
			}
		}
	}
	segUs = float64(time.Since(start).Nanoseconds()) / float64(n) / 1e3
	r := atm.NewReassembler(vc)
	got := 0
	start = time.Now()
	for i := 0; i < n; i++ {
		for off := 0; off < len(dst); off += atm.CellSize {
			c, err := atm.DecodeCell(dst[off : off+atm.CellSize])
			if err != nil {
				panic(err)
			}
			if _, done, err := r.Push(c); err != nil {
				panic(err)
			} else if done {
				got++
			}
		}
	}
	reasmUs = float64(time.Since(start).Nanoseconds()) / float64(n) / 1e3
	if got != n*len(frames) {
		panic(fmt.Sprintf("atm side loop reassembled %d frames, want %d", got, n*len(frames)))
	}
	return segUs, reasmUs, cells
}
