package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// pingpong-mem: two procs on the in-process Mem carrier, one signaled
// windowed channel, and a 64 B Channel.Send → RecvInto echo; one op is one
// round trip. The smallest message is where per-message host cost
// dominates: at GOMAXPROCS ≥ 2 each proc runs the sharded lane engine and
// the time goes to mts/lane handoffs, while AAL5, udpatm and collectives
// do no work. The window's credits ride the echoes (piggybacked control).

const (
	ppPayload = 64
	ppWindow  = 4
	ppShapes  = 64 // distinct seeded payloads cycled through
)

// Message kinds (first payload byte) the client sends the echo thread.
const (
	kindData byte = iota + 1
	kindMark      // snapshot counters now: the timed window opens
	kindStop      // last message: exit
)

// ppEcho is what the echo side reports back: its runtime's switch count
// and its channel's control counters at the mark and at the stop.
type ppEcho struct {
	sw    [2]int
	stats [2]core.ChannelStats
}

type ppRun struct {
	setup time.Duration
	lanes int
	// client-side snapshots at window open/close.
	sw     [2]int
	stats  [2]core.ChannelStats
	batch  [2][2]int64
	echo   ppEcho
	closed bool
}

func ppPayloads(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, ppShapes)
	for i := range out {
		b := make([]byte, ppPayload)
		rng.Read(b)
		b[0] = kindData
		out[i] = b
	}
	return out
}

// pingpongOnce builds a fresh proc pair, opens the channel through the SVC
// handshake and completes one echo: that much is the timed setup. With m
// non-nil it then runs the steady-state loop for o.seconds (or o.rounds
// ops) into m; either way it tears the pair down before returning.
func pingpongOnce(o opts, pay [][]byte, m *meter, tk *track, fail *failures) (*ppRun, int64, error) {
	r := &ppRun{}
	var attempted int64
	t0 := time.Now()
	tk.beginOp()
	tk.begin("setup")
	mem := transport.NewMem()
	procs := make([]*core.Proc, 2)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("pp%d", i), IdleTimeout: 60 * time.Second})
		cfg := core.Config{ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt)}
		if i == 1 {
			cfg.OnAccept = func(c *core.Channel) { ppServe(c, &r.echo, fail) }
		}
		procs[i] = core.New(cfg)
		procs[i].OnException(fail.exceptionHandler(fmt.Sprintf("proc %d", i)))
	}
	r.lanes = procs[0].Lanes()
	procs[1].TCreate("keeper", mts.PrioDefault, func(th *core.Thread) {
		th.Recv(core.Any, 0) // holds the callee up until the client says bye
	})
	procs[0].TCreate("client", mts.PrioDefault, func(th *core.Thread) {
		defer th.Send(0, 1, []byte("bye"))
		tk.begin("core.signal_opencall")
		ch, err := procs[0].OpenCall(th, 1, core.CallConfig{Flow: core.NewWindowFlow(ppWindow)})
		tk.end()
		if err != nil {
			tk.end()
			fail.add(fmt.Errorf("OpenCall: %w", err))
			return
		}
		buf := make([]byte, 2*ppPayload)
		_, from := ch.RecvInto(th, buf, core.Any) // the echo thread's announcement
		srv := from.Thread
		echo := func(k int, tk *track) time.Time {
			pl := pay[k%len(pay)]
			tk.begin("core.send")
			ch.Send(th, srv, pl)
			tk.end()
			tk.begin("core.recv_wait")
			n, _ := ch.RecvInto(th, buf, srv)
			tk.end()
			now := time.Now()
			if !bytes.Equal(buf[:n], pl) {
				fail.add(fmt.Errorf("op %d: echo of %d bytes does not match the %d sent", k, n, len(pl)))
			}
			return now
		}
		r.setup = echo(0, tk).Sub(t0)
		tk.end() // setup
		if m != nil {
			attempted = ppLoop(o, ch, th, srv, buf, echo, m, tk, mem, r)
		}
		// The echo thread answers the stop before it exits, so nothing is
		// in flight when the release handshake starts.
		ch.Send(th, srv, []byte{kindStop})
		ch.RecvInto(th, buf, srv)
		if err := ch.CloseCall(th); err != nil {
			fail.add(fmt.Errorf("CloseCall: %w", err))
		}
		r.closed = true
	})
	startAll(procs)
	if !r.closed {
		return nil, attempted, fmt.Errorf("pingpong session ended without closing its channel: %v", fail.err())
	}
	return r, attempted, nil
}

// ppLoop is the closed steady-state loop: warm up, open the window, echo
// until the deadline, close the window. It returns the ops attempted in the
// window.
func ppLoop(o opts, ch *core.Channel, th *core.Thread, srv int, buf []byte,
	echo func(int, *track) time.Time, m *meter, tk *track, mem *transport.Mem, r *ppRun) int64 {
	rt := th.Proc().RT()
	k := 1
	for end := time.Now().Add(warmup); o.rounds == 0 && time.Now().Before(end); k++ {
		echo(k, nil)
	}
	// The mark round trip makes the echo side snapshot its counters.
	ch.Send(th, srv, []byte{kindMark})
	ch.RecvInto(th, buf, srv)
	r.sw[0], r.stats[0] = rt.Switches(), ch.Stats()
	r.batch[0][0], r.batch[0][1] = mem.BatchStats()
	m.start()
	deadline := m.t0.Add(o.seconds)
	var n int64
	for now := m.t0; ; k++ {
		if o.rounds > 0 && n >= int64(o.rounds) || o.rounds == 0 && !now.Before(deadline) {
			break
		}
		var t *track
		if m.tracing() {
			t = tk
			t.beginOp()
			t.begin("op")
		}
		start := time.Now()
		now = echo(k, t)
		t.end()
		n++
		m.done(now.Sub(start), 2*ppPayload, now)
	}
	m.stop()
	r.sw[1], r.stats[1] = rt.Switches(), ch.Stats()
	r.batch[1][0], r.batch[1][1] = mem.BatchStats()
	ch.Send(th, srv, []byte{kindMark})
	ch.RecvInto(th, buf, srv)
	return n
}

// ppServe is the callee's accept hook: a thread that announces itself to
// the opener and echoes every message back, the stop included.
func ppServe(c *core.Channel, e *ppEcho, fail *failures) {
	c.Proc().TCreate("echo", mts.PrioDefault, func(th *core.Thread) {
		opener := c.PeerThread()
		c.Send(th, opener, []byte{0})
		buf := make([]byte, 2*ppPayload)
		marks := 0
		for {
			n, _ := c.RecvInto(th, buf, opener)
			if n == 0 {
				fail.add(fmt.Errorf("echo: empty message"))
				return
			}
			if buf[0] == kindMark && marks < 2 {
				e.sw[marks], e.stats[marks] = th.Proc().RT().Switches(), c.Stats()
				marks++
			}
			c.Send(th, opener, buf[:n])
			if buf[0] == kindStop {
				return
			}
		}
	})
}

// startAll runs every proc's runtime (NCS_start) and waits for all to
// finish.
func startAll(procs []*core.Proc) {
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() {
			p.Start()
			done <- struct{}{}
		}()
	}
	for range procs {
		<-done
	}
}

func runPingPong(o opts) (*result, error) {
	fail := &failures{}
	pay := ppPayloads(o.seed)
	heap := newHeapSampler()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m := newMeter(o.trace, heap)
	var r *ppRun
	var attempted int64
	setups, err := withSetups(o, heap, func(i int) (time.Duration, error) {
		r, _, err := pingpongOnce(o, pay, nil, trackOf(tr, fmt.Sprintf("setup%d", i)), fail)
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	}, func() (d time.Duration, err error) {
		r, attempted, err = pingpongOnce(o, pay, m, trackOf(tr, "client"), fail)
		if err != nil {
			return 0, err
		}
		return r.setup, nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult(o, m, setups, fail, tr, attempted, "in-process Mem", r.lanes)
	if o.trace {
		ops := float64(m.ops)
		piggy := r.stats[1].CtrlPiggybacked - r.stats[0].CtrlPiggybacked +
			r.echo.stats[1].CtrlPiggybacked - r.echo.stats[0].CtrlPiggybacked
		alone := r.stats[1].CtrlStandalone - r.stats[0].CtrlStandalone +
			r.echo.stats[1].CtrlStandalone - r.echo.stats[0].CtrlStandalone
		calls := r.batch[1][0] - r.batch[0][0]
		msgs := r.batch[1][1] - r.batch[0][1]
		lm := layerMetrics{
			switchesPerOp:   float64(r.sw[1]-r.sw[0]+r.echo.sw[1]-r.echo.sw[0]) / ops,
			piggyShare:      ratio(piggy, piggy+alone),
			standalonePer:   ratio(alone, 2*m.ops),
			msgsPerBatch:    ratio(msgs, calls),
			overheadPct:     m.traceOverhead(),
			sideLoopPayload: ppPayload,
		}
		res.perLayer = lm.metrics(tr)
	}
	return res, nil
}

func trackOf(tr *tracer, name string) *track {
	if tr == nil {
		return nil
	}
	return tr.track(name)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
