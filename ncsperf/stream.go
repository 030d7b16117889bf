package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/udpatm"
)

// stream-udpatm: two procs on udpatm — real AAL5 cells in UDP datagrams
// over loopback, not a physical link — streaming 64 KB one-way messages
// under WindowFlow credits; one op is one message delivered, its latency
// running from Send to delivery (stamped in the payload). This is the bulk
// cell path: segmentation and the AAL5 CRC dominate, mts handoffs are
// diluted, and with no reverse data the credits travel as standalone
// control frames. udpatm is not a FrameCarrier, so the procs run the
// classic two-thread engine, where pingpong-mem runs lanes.

const (
	stPayload = 64 << 10
	stWindow  = 8
	stBodies  = 16 // distinct seeded bodies cycled through
	stHeader  = 24 // kind, seq, send stamp; the body follows
)

type stRun struct {
	setup     time.Duration
	lanes     int
	attempted int64
	closed    bool
	// sender-side snapshots at the marks.
	sw    [2]int
	stats [2]core.ChannelStats
	cells [2]int64
	train [2][2]int64 // trains, frames in trains
	sink  stSink
	// carrier fault counters after the run.
	dropped, badCells int64
}

// stSink is what the sink thread reports: the first delivery time, the
// messages and bytes it delivered between the marks, and its runtime and
// channel snapshots at the marks.
type stSink struct {
	first     time.Time
	delivered int64
	bytes     int64
	sw        [2]int
	stats     [2]core.ChannelStats
}

// stBodiesFor builds the seeded message bodies and their checksums. The
// first stHeader bytes of each are rewritten per message (kind, sequence,
// stamp) and excluded from the checksum.
func stBodiesFor(seed int64) ([][]byte, []uint32) {
	rng := rand.New(rand.NewSource(seed))
	bodies := make([][]byte, stBodies)
	sums := make([]uint32, stBodies)
	for i := range bodies {
		b := make([]byte, stPayload)
		rng.Read(b)
		bodies[i] = b
		sums[i] = crc32.ChecksumIEEE(b[stHeader:])
	}
	return bodies, sums
}

// streamOnce builds a fresh pair on loopback UDP, opens the channel and
// delivers one message (the timed setup); with m non-nil it then streams
// for o.seconds (or o.rounds messages) and meters the sink.
func streamOnce(o opts, bodies [][]byte, sums []uint32, epoch time.Time, m *meter, tk, sinkTk *track, fail *failures) (*stRun, error) {
	r := &stRun{}
	t0 := time.Now()
	tk.beginOp()
	tk.begin("setup")
	fabric := udpatm.NewNetwork()
	procs := make([]*core.Proc, 2)
	eps := make([]*udpatm.Endpoint, 2)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("st%d", i), IdleTimeout: 60 * time.Second})
		ep, err := fabric.Attach(transport.ProcID(i), rt)
		if err != nil {
			for _, e := range eps[:i] {
				e.Close()
			}
			return nil, err
		}
		eps[i] = ep
		cfg := core.Config{ID: core.ProcID(i), RT: rt, Endpoint: ep}
		if i == 1 {
			cfg.OnAccept = func(c *core.Channel) { stServe(c, sums, epoch, m, sinkTk, &r.sink, fail) }
		}
		procs[i] = core.New(cfg)
		procs[i].OnException(fail.exceptionHandler(fmt.Sprintf("proc %d", i)))
	}
	r.lanes = procs[0].Lanes()
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *core.Thread) {
		th.Recv(core.Any, 0)
	})
	procs[0].TCreate("sender", mts.PrioDefault, func(th *core.Thread) {
		defer th.Send(0, 1, []byte("bye"))
		tk.begin("core.signal_opencall")
		ch, err := procs[0].OpenCall(th, 1, core.CallConfig{Flow: core.NewWindowFlow(stWindow)})
		tk.end()
		if err != nil {
			tk.end()
			fail.add(fmt.Errorf("OpenCall: %w", err))
			return
		}
		var hello [1]byte
		_, from := ch.RecvInto(th, hello[:], core.Any) // the sink's announcement
		sink := from.Thread
		seq := uint64(0)
		send := func(tk *track) {
			b := bodies[seq%stBodies]
			b[0] = kindData
			binary.BigEndian.PutUint64(b[8:], seq)
			binary.BigEndian.PutUint64(b[16:], uint64(time.Since(epoch)))
			tk.begin("core.send")
			ch.Send(th, sink, b)
			tk.end()
			seq++
		}
		send(tk)
		tk.end() // setup; it completes at the sink's first delivery
		if m != nil {
			for end := time.Now().Add(warmup); o.rounds == 0 && time.Now().Before(end); {
				send(nil)
			}
			ep := eps[0]
			rt := th.Proc().RT()
			ch.Send(th, sink, []byte{kindMark})
			r.sw[0], r.stats[0], r.cells[0] = rt.Switches(), ch.Stats(), ep.CellsSent()
			r.train[0][0], r.train[0][1], _ = ep.TrainStats()
			// The sender alternates traced and untraced windows on its own
			// clock, in step with the sink's meter to within the mark's
			// flight time.
			open := time.Now()
			deadline := open.Add(o.seconds)
			for {
				now := time.Now()
				if o.rounds > 0 && r.attempted >= int64(o.rounds) || o.rounds == 0 && !now.Before(deadline) {
					break
				}
				var t *track
				if int(now.Sub(open)/window)%2 == 1 {
					t = tk
				}
				send(t)
				r.attempted++
			}
			ch.Send(th, sink, []byte{kindMark})
			r.sw[1], r.stats[1], r.cells[1] = rt.Switches(), ch.Stats(), ep.CellsSent()
			r.train[1][0], r.train[1][1], _ = ep.TrainStats()
		}
		// Wait for the sink to acknowledge the stop before releasing the
		// call: on udpatm the release travels on the signaling VC, which
		// the writer may serve ahead of data still queued on this
		// channel's VC, and the callee drops data arriving after it.
		ch.Send(th, sink, []byte{kindStop})
		ch.RecvInto(th, hello[:], sink)
		if err := ch.CloseCall(th); err != nil {
			fail.add(fmt.Errorf("CloseCall: %w", err))
		}
		r.closed = true
	})
	startAll(procs)
	for _, ep := range eps {
		r.dropped += ep.RecvDropped()
		r.badCells += ep.BadCells()
		ep.Close()
	}
	if !r.closed {
		return nil, fmt.Errorf("stream session ended without closing its channel: %v", fail.err())
	}
	r.setup = r.sink.first.Sub(t0)
	return r, nil
}

// stServe is the callee's accept hook: the sink thread announces itself,
// then verifies every message's sequence, length and checksum, metering
// the deliveries between the two marks.
func stServe(c *core.Channel, sums []uint32, epoch time.Time, m *meter, tk *track, s *stSink, fail *failures) {
	c.Proc().TCreate("sink", mts.PrioDefault, func(th *core.Thread) {
		opener := c.PeerThread()
		c.Send(th, opener, []byte{0})
		buf := make([]byte, stPayload)
		rt := th.Proc().RT()
		next := uint64(0)
		marks := 0
		for {
			var t *track
			if marks == 1 && m.tracing() {
				t = tk
				t.beginOp()
			}
			t.begin("core.recv_wait")
			n, _ := c.RecvInto(th, buf, opener)
			t.end()
			now := time.Now()
			if n == 0 {
				fail.add(fmt.Errorf("sink: empty message"))
				return
			}
			switch buf[0] {
			case kindStop:
				c.Send(th, opener, []byte{kindStop})
				return
			case kindMark:
				if marks < 2 {
					s.sw[marks], s.stats[marks] = rt.Switches(), c.Stats()
					if marks == 0 {
						m.start()
					} else {
						m.stop()
					}
				}
				marks++
				continue
			}
			t.begin("verify")
			seq := binary.BigEndian.Uint64(buf[8:])
			switch {
			case n != stPayload:
				fail.add(fmt.Errorf("message %d: %d bytes, want %d", next, n, stPayload))
			case seq != next:
				fail.add(fmt.Errorf("message %d arrived as sequence %d", next, seq))
			case crc32.ChecksumIEEE(buf[stHeader:n]) != sums[seq%stBodies]:
				fail.add(fmt.Errorf("message %d: checksum mismatch", seq))
			}
			t.end()
			next = seq + 1
			if s.first.IsZero() {
				s.first = now
			}
			if marks == 1 {
				s.delivered++
				s.bytes += int64(n)
				stamp := time.Duration(binary.BigEndian.Uint64(buf[16:]))
				m.done(now.Sub(epoch)-stamp, n, now)
			}
		}
	})
}

func runStream(o opts) (*result, error) {
	fail := &failures{}
	bodies, sums := stBodiesFor(o.seed)
	epoch := time.Now()
	heap := newHeapSampler()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m := newMeter(o.trace, heap)
	var r *stRun
	setups, err := withSetups(o, heap, func(i int) (time.Duration, error) {
		r, err := streamOnce(o, bodies, sums, epoch, nil, trackOf(tr, fmt.Sprintf("setup%d", i)), nil, fail)
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	}, func() (d time.Duration, err error) {
		r, err = streamOnce(o, bodies, sums, epoch, m, trackOf(tr, "sender"), trackOf(tr, "sink"), fail)
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	})
	if err != nil {
		return nil, err
	}

	// Every message sent in the window must have been delivered intact;
	// carrier drops and corrupt cells count as failures too.
	failed := fail.count() + r.dropped + r.badCells
	if missing := r.attempted - r.sink.delivered; missing > 0 {
		failed += missing
	}
	if r.sink.bytes != r.sink.delivered*stPayload {
		failed++
	}
	res := newResult(o, m, setups, fail, tr, r.attempted, "loopback UDP (AAL5 cells in datagrams)", r.lanes)
	res.failed = failed
	if o.trace {
		ops := float64(m.ops)
		s := r.sink
		piggy := r.stats[1].CtrlPiggybacked - r.stats[0].CtrlPiggybacked +
			s.stats[1].CtrlPiggybacked - s.stats[0].CtrlPiggybacked
		alone := r.stats[1].CtrlStandalone - r.stats[0].CtrlStandalone +
			s.stats[1].CtrlStandalone - s.stats[0].CtrlStandalone
		cells := float64(r.cells[1] - r.cells[0])
		trains := r.train[1][0] - r.train[0][0]
		trainFrames := r.train[1][1] - r.train[0][1]
		framesPerMsg := float64(len(atmFrames(stPayload)))
		lm := layerMetrics{
			switchesPerOp:   float64(r.sw[1]-r.sw[0]+s.sw[1]-s.sw[0]) / ops,
			piggyShare:      ratio(piggy, piggy+alone),
			standalonePer:   ratio(alone, m.ops),
			cellsPerMsg:     cells / ops,
			trainsPerMsg:    float64(trains) / ops,
			recvDropped:     float64(r.dropped + r.badCells),
			overheadPct:     m.traceOverhead(),
			sideLoopPayload: stPayload,
		}
		if trains > 0 {
			lm.cellsPerTrain = float64(trainFrames) / float64(trains) * cells / ops / framesPerMsg
		}
		res.perLayer = lm.metrics(tr)
	}
	return res, nil
}
