package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------------
// DRR scheduler unit tests (laneSched, drr.go)

func drrChan(prio, weight int) *Channel {
	return &Channel{priority: prio, weight: weight}
}

func drrReq(c *Channel, tag, size int) *sendReq {
	return &sendReq{m: &transport.Message{Tag: tag, Data: make([]byte, size)}, ch: c}
}

// TestLaneSchedWeightedService checks the deficit-round-robin core: two
// equal-priority channels with weights 3 and 1 and quantum-sized frames
// must interleave 3:1, FIFO within each channel.
func TestLaneSchedWeightedService(t *testing.T) {
	var s laneSched
	size := drrQuantum - wire.HeaderSize // reqCost == drrQuantum exactly
	c3 := drrChan(4, 3)
	c1 := drrChan(4, 1)
	for k := 0; k < 8; k++ {
		s.push(c3.priority, drrReq(c3, k, size))
	}
	for k := 0; k < 8; k++ {
		s.push(c1.priority, drrReq(c1, k, size))
	}
	var pattern []*Channel
	next := map[*Channel]int{}
	for !s.empty() {
		req := s.pop()
		if req.m.Tag != next[req.ch] {
			t.Fatalf("FIFO broken: channel served tag %d, want %d", req.m.Tag, next[req.ch])
		}
		next[req.ch]++
		pattern = append(pattern, req.ch)
	}
	if next[c3] != 8 || next[c1] != 8 {
		t.Fatalf("served %d/%d, want 8/8", next[c3], next[c1])
	}
	// First two full rounds: three c3 frames per one c1 frame.
	want := []*Channel{c3, c3, c3, c1, c3, c3, c3, c1}
	for i, c := range want {
		if pattern[i] != c {
			t.Fatalf("position %d served weight-%d channel, want weight-%d (pattern %v)",
				i, pattern[i].weight, c.weight, pattern[:8])
		}
	}
	if s.rounds == 0 {
		t.Fatal("no completed DRR rounds counted")
	}
}

// TestLaneSchedControlFirst checks the strict control band: control pops
// before any queued data regardless of backlog.
func TestLaneSchedControlFirst(t *testing.T) {
	var s laneSched
	c := drrChan(7, 1)
	for k := 0; k < 4; k++ {
		s.push(c.priority, drrReq(c, k, 16))
	}
	ctrl := &sendReq{m: &transport.Message{Tag: tagFlowAck}, ctrl: true}
	s.push(ctrlLevel, ctrl)
	if got := s.pop(); got != ctrl {
		t.Fatal("control did not pop before queued data")
	}
	if got := s.pop(); got.m.Tag != 0 {
		t.Fatalf("data resumed at tag %d, want 0", got.m.Tag)
	}
}

// TestLaneSchedPriorityPreemption checks that a freshly-backlogged
// higher-priority channel takes the cursor immediately — the property that
// keeps the sharded dispatch test's strict-priority expectations intact.
func TestLaneSchedPriorityPreemption(t *testing.T) {
	var s laneSched
	low := drrChan(0, 1)
	high := drrChan(7, 1)
	s.push(low.priority, drrReq(low, 0, 16))
	s.push(low.priority, drrReq(low, 1, 16))
	if got := s.pop(); got.ch != low {
		t.Fatal("lone low-priority channel not served")
	}
	s.push(high.priority, drrReq(high, 0, 16))
	if got := s.pop(); got.ch != high {
		t.Fatal("high-priority newcomer did not preempt the round")
	}
	if got := s.pop(); got.ch != low || got.m.Tag != 1 {
		t.Fatal("low-priority backlog lost after preemption")
	}
}

// TestLaneSchedOversizedFrame checks the boost escalation: a frame far
// larger than quantum·weight must still be served (in one pop call — the
// deficit accumulates geometrically, not linearly).
func TestLaneSchedOversizedFrame(t *testing.T) {
	var s laneSched
	c := drrChan(0, 1)
	s.push(c.priority, drrReq(c, 0, 1<<20))
	if got := s.pop(); got.ch != c {
		t.Fatal("oversized frame never served")
	}
	if !s.empty() {
		t.Fatal("scheduler not empty after draining")
	}
}

// ---------------------------------------------------------------------------
// Flush-wheel timer coalescing (satellite: 256 idle channels ≠ 256 timers)

// TestFlushWheelTimerCount opens 255 reliable channels (every usable ID)
// spread over four lanes, pushes one message through each (so all 255
// receiver ends queue an acknowledgement inside the same piggyback
// window), and asserts the armed flush-timer count never exceeds the lane
// count: the per-lane wheel serves every waiting channel with one timer.
func TestFlushWheelTimerCount(t *testing.T) {
	const nch = 255
	mem := transport.NewMem()
	procs := shardedCluster(t, 2, mem, nil)
	tx := make([]*Channel, nch)
	for i := 0; i < nch; i++ {
		mk := func() ChannelConfig {
			return ChannelConfig{
				ID:    ChannelID(i + 1),
				Lane:  i%4 + 1, // spread explicitly over all four lanes
				Error: NewGoBackN(4, 50*time.Millisecond),
			}
		}
		tx[i] = procs[0].Open(1, mk())
		procs[1].Open(0, mk())
	}
	var maxTimers atomic.Int64
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := procs[1].flushTimers.Load(); n > maxTimers.Load() {
				maxTimers.Store(n)
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	procs[0].TCreate("tx", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < nch; i++ {
			tx[i].SendTagged(th, 0, 0, []byte{byte(i)})
		}
	})
	procs[1].TCreate("rx", mts.PrioDefault, func(th *Thread) {
		for i := 0; i < nch; i++ {
			m := th.recvMsgOn(ChannelID(i+1), Any, Any, 0)
			m.Release()
		}
	})
	runReal(procs)
	close(stop)
	if got := maxTimers.Load(); got > 4 {
		t.Fatalf("observed %d armed flush timers for %d channels, want <= 4 (one per lane)", got, nch)
	}
	if maxTimers.Load() == 0 {
		t.Fatal("flush wheel never armed — the ack path did not engage")
	}
	// Every channel's ack must have flushed (no reverse data to ride here).
	for i := 0; i < nch; i++ {
		cs, _ := procs[1].lookupChannel(0, ChannelID(i+1))
		st := cs.Stats()
		if st.CtrlPiggybacked+st.CtrlStandalone == 0 {
			t.Fatalf("channel %d never sent its ack", i+1)
		}
	}
}

// ---------------------------------------------------------------------------
// Cross-channel control coalescing (tentpole layer 1)

// TestCrossChannelCoalesce runs data one way on a reliable channel and
// unrelated reverse traffic on a *sibling* channel to the same peer. The
// receiver's acknowledgements must ride the sibling's data frames
// (stamped with their owning channel), and the sender must route the
// foreign words back to the right discipline — the send side completes
// only if every cross-carried ack lands.
func TestCrossChannelCoalesce(t *testing.T) {
	const msgs = 200
	mem := transport.NewMem()
	procs := make([]*Proc, 2)
	for i := 0; i < 2; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			Lanes: 4,
		})
	}
	a0 := procs[0].Open(1, ChannelConfig{ID: 1, Error: NewGoBackN(8, 50*time.Millisecond)})
	a1 := procs[1].Open(0, ChannelConfig{ID: 1, Error: NewGoBackN(8, 50*time.Millisecond)})
	procs[0].Open(1, ChannelConfig{ID: 2})
	b1 := procs[1].Open(0, ChannelConfig{ID: 2})

	procs[0].OnException(func(error) {}) // trailing-ack give-up after peer exit
	procs[1].OnException(func(error) {})
	procs[0].TCreate("txA", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			a0.SendTagged(th, k, 0, []byte{byte(k)})
		}
	})
	procs[0].TCreate("rxB", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := th.recvMsgOn(2, Any, Any, 1)
			m.Release()
		}
	})
	procs[1].TCreate("fwd", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := th.recvMsgOn(1, Any, Any, 0)
			m.Release()
			// Reverse data on the *other* channel: the ack queued by the
			// arrival above should hitch a ride on this frame.
			b1.SendTagged(th, k, 1, []byte{byte(k)})
		}
	})
	runReal(procs)

	st := a1.Stats()
	if st.CtrlCoalesced == 0 {
		t.Fatalf("no acks rode the sibling channel (piggy %d standalone %d)",
			st.CtrlPiggybacked, st.CtrlStandalone)
	}
	t.Logf("receiver ack path: %d coalesced cross-channel, %d piggybacked total, %d standalone",
		st.CtrlCoalesced, st.CtrlPiggybacked, st.CtrlStandalone)
	ls := procs[1].LaneStats()
	var coal int64
	for _, l := range ls {
		coal += l.CtrlCoalesced
	}
	if coal != st.CtrlCoalesced {
		t.Fatalf("lane counters disagree with channel counters: %d vs %d", coal, st.CtrlCoalesced)
	}
}

// ---------------------------------------------------------------------------
// Skewed placement

// TestHotLaneSkew forces every channel onto lane 0 through a skewed
// Config.LaneHash and drives bursty reliable traffic through the one hot
// lane, while a concurrent goroutine hammers the stats surfaces (-race
// verifies their locking under traffic). Placement is fixed at open: every
// hash-placed channel must still be on lane 0 at the end, an explicitly
// pinned channel on its pinned lane, and each channel's delivery FIFO.
func TestHotLaneSkew(t *testing.T) {
	const nch, rounds, burst = 8, 30, 10
	mem := transport.NewMem()
	procs := make([]*Proc, 2)
	for i := 0; i < 2; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			Lanes:    4,
			LaneHash: func(ProcID) int { return 0 }, // maximal skew
		})
	}
	payload := make([]byte, 4096)
	chans := make([][2]*Channel, nch)
	for i := 0; i < nch; i++ {
		mk := func() ChannelConfig {
			return ChannelConfig{
				ID:    ChannelID(i + 1),
				Error: NewGoBackN(16, 50*time.Millisecond),
			}
		}
		chans[i] = [2]*Channel{procs[0].Open(1, mk()), procs[1].Open(0, mk())}
	}
	mkPin := func() ChannelConfig {
		return ChannelConfig{ID: 99, Lane: 2, Error: NewGoBackN(4, 50*time.Millisecond)}
	}
	pin0 := procs[0].Open(1, mkPin())
	procs[1].Open(0, mkPin())

	stop := make(chan struct{})
	go func() { // stats under traffic: -race verifies the locking
		for {
			select {
			case <-stop:
				return
			default:
			}
			procs[0].LaneStats()
			for i := range chans {
				chans[i][0].Stats()
				chans[i][1].Stats()
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	procs[0].OnException(func(error) {})
	procs[1].OnException(func(error) {})
	order := make([][]int, nch)
	for i := 0; i < nch; i++ {
		i := i
		tx, rx := chans[i][0], chans[i][1]
		procs[0].TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(th *Thread) {
			tag := 0
			for r := 0; r < rounds; r++ {
				for k := 0; k < burst; k++ {
					tx.SendTagged(th, tag, i, payload)
					tag++
				}
				// Wait for the receiver's echo before the next burst.
				m := th.recvMsgOn(tx.id, Any, Any, 1)
				m.Release()
			}
		})
		procs[1].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(th *Thread) {
			for r := 0; r < rounds; r++ {
				for k := 0; k < burst; k++ {
					m := th.recvMsgOn(rx.id, Any, Any, 0)
					order[i] = append(order[i], m.Tag)
					m.Release()
				}
				rx.SendTagged(th, r, i, nil)
			}
		})
	}
	procs[0].TCreate("pin", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < 20; k++ {
			pin0.SendTagged(th, k, nch, payload)
		}
	})
	procs[1].TCreate("pinrx", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < 20; k++ {
			m := th.recvMsgOn(99, Any, Any, 0)
			m.Release()
		}
	})
	runReal(procs)
	close(stop)

	for i := 0; i < nch; i++ {
		if len(order[i]) != rounds*burst {
			t.Fatalf("channel %d: %d messages, want %d", i+1, len(order[i]), rounds*burst)
		}
		for k, tag := range order[i] {
			if tag != k {
				t.Fatalf("channel %d: position %d saw tag %d (FIFO broken)", i+1, k, tag)
			}
		}
	}
	for i := 0; i < nch; i++ {
		for side, c := range chans[i] {
			if c.ln != procs[side].lanes[0] {
				t.Fatalf("proc %d channel %d left its placed lane 0 for lane %d", side, i+1, c.ln.idx)
			}
		}
	}
	if want := procs[0].lanes[1]; pin0.ln != want {
		t.Fatalf("pinned channel moved to lane %d", pin0.ln.idx)
	}
	for _, l := range procs[0].LaneStats() {
		if l.MigratedIn != 0 {
			t.Fatalf("lane %d reports %d channels migrated in", l.Lane, l.MigratedIn)
		}
	}
}

// ---------------------------------------------------------------------------
// Chaos: DRR weights under loss on a skewed lane

// TestAdaptiveChaosLossy drives a priority (weight 6) and a bulk
// (weight 2) class — same priority level, so the weighted scheduler, not
// strict priority, shares the lane — through 20% frame loss with every
// channel hash-skewed onto lane 0, over three seeds. Go-back-N must deliver each class exactly-once in order, and the
// bulk class must keep at least half its weight share while the priority
// class saturates (the DRR starvation bound).
func TestAdaptiveChaosLossy(t *testing.T) {
	const msgs = 150
	for _, seed := range []int64{3, 41, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mem := transport.NewMem()
			mem.SetDropRate(0.20, seed)
			mem.SetDropClass(func(m *transport.Message) bool { return m.Channel >= 1 })
			procs := make([]*Proc, 2)
			for i := 0; i < 2; i++ {
				rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
				procs[i] = New(Config{
					ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
					Lanes:    4,
					LaneHash: func(ProcID) int { return 0 },
				})
				procs[i].OnException(func(error) {})
			}
			mkCfg := func(id ChannelID, weight int) ChannelConfig {
				return ChannelConfig{
					ID: id, Priority: 5, Weight: weight,
					Error: NewGoBackN(8, 25*time.Millisecond),
				}
			}
			// arrivals interleaves both channels' tags per side; every
			// append runs in that side's scheduler domain (one thread at a
			// time), so the slice needs no lock.
			arrivals := [2][]ChannelID{}
			for side := 0; side < 2; side++ {
				side := side
				peer := ProcID(1 - side)
				prio := procs[side].Open(peer, mkCfg(1, 6))
				bulk := procs[side].Open(peer, mkCfg(2, 2))
				for ci, c := range []*Channel{prio, bulk} {
					ci, c := ci, c
					procs[side].TCreate(fmt.Sprintf("tx%d", ci), mts.PrioDefault, func(th *Thread) {
						for k := 0; k < msgs; k++ {
							c.SendTagged(th, k, 2*ci+1, []byte{byte(k)})
						}
					})
					procs[side].TCreate(fmt.Sprintf("rx%d", ci), mts.PrioDefault, func(th *Thread) {
						for k := 0; k < msgs; k++ {
							m := th.recvMsgOn(c.id, k, Any, peer)
							arrivals[side] = append(arrivals[side], m.Channel)
							m.Release()
						}
					})
				}
			}
			runReal(procs)
			if mem.Dropped() == 0 {
				t.Fatal("no loss injected — chaos proves nothing")
			}
			for side := 0; side < 2; side++ {
				got := arrivals[side]
				var nPrio, nBulk, bulkAtPrioDone int
				for _, ch := range got {
					if ch == 1 {
						nPrio++
						if nPrio == msgs {
							bulkAtPrioDone = nBulk
						}
					} else {
						nBulk++
					}
				}
				// recvMsgOn(k) enforces in-order tags; counts prove
				// exactly-once on top.
				if nPrio != msgs || nBulk != msgs {
					t.Fatalf("side %d: %d prio + %d bulk arrivals, want %d each", side, nPrio, nBulk, msgs)
				}
				// Starvation bound: by the time the priority class finished,
				// bulk must have kept at least half its weight share
				// (weight 2 of 8 → a quarter share → bound msgs/8).
				if bulkAtPrioDone < msgs/8 {
					t.Fatalf("side %d: bulk starved — only %d of %d delivered when the priority class finished (bound %d)",
						side, bulkAtPrioDone, msgs, msgs/8)
				}
				t.Logf("side %d: bulk had %d/%d through when prio finished", side, bulkAtPrioDone, msgs)
			}
		})
	}
}
