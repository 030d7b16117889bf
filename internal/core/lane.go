package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/ring"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the sharded multi-core hot path: the per-proc send and
// receive system threads of the paper's Figure 8 split into independent
// *lanes*, each owning its own priority queues, freelists, wakeup, and
// engine goroutine. A channel is pinned to exactly one lane for its
// lifetime (default: hash of the peer, overridable via ChannelConfig.Lane),
// so strict priority and per-channel FIFO ordering are preserved within a
// channel while independent channels run on separate cores.
//
// Execution domains. Classic NCS has one domain — the mts scheduler, where
// exactly one thread runs at a time. Sharded NCS adds one domain per lane:
//
//   - Lane domain: everything a channel owns (discipline state, piggyback
//     words, counters' non-atomic neighbors, the lane's queues and
//     freelists) is guarded by lane.mu. Senders enter it inline (lane.send
//     locks, enqueues, services, unlocks — no system-thread hop at all);
//     arriving frames enter through a multi-producer ring drained by the
//     lane engine goroutine; timers enter through Channel.wrapTimer.
//   - Scheduler domain: thread wakeups, receive matching (waiters/store),
//     barrier state, and exception handlers stay where they always were.
//     Lane code never calls them directly — it appends to the lane's
//     out-queues (wake/fans/deliver/errs) and schedules a drain via
//     Runtime.PostAsync, which runs between dispatches.
//
// Lock order: Proc.chanMu (channel table) before lane.mu, never the
// reverse. Lane engines never block while holding lane.mu (PostAsync and
// ring pushes are non-blocking by construction), so a scheduler-domain
// thread waiting on lane.mu always makes progress.
//
// Lane count defaults to min(GOMAXPROCS, 4); a single lane keeps the
// classic two-system-thread path byte for byte (New only builds lanes when
// the resolved count exceeds one), which is the paper-faithful baseline the
// benches A/B against.

// rxItem is one arriving message routed to a lane: the decoded frame plus
// its channel, resolved in the *sender's* goroutine so the engine never
// touches the channel table. cc/ca name the channels a cross-channel
// piggybacked credit/ack word belongs to when that differs from the
// frame's own channel (lane-aware coalescing).
type rxItem struct {
	m      *transport.Message
	c      *Channel // nil for barrier control and unknown-channel traffic
	cc, ca *Channel // cross-channel credit / ack targets (usually nil)
}

// lane is one send/recv engine shard.
type lane struct {
	p   *Proc
	idx int

	// rx is the MPSC hand-off ring: transports (any goroutine) push, the
	// engine drains.
	rx *ring.MPSC[rxItem]

	// mu guards everything below it, plus all state of every channel
	// pinned to this lane (discipline windows, piggyback words, flush
	// flags).
	mu sync.Mutex

	// pending is the lane's send scheduler — control strictly first, then
	// deficit round robin across the lane's data channels (see drr.go);
	// rxq is its receive priority queue (the classic rxIn).
	pending laneSched
	rxq     prioQueue[rxItem]

	// chans lists every channel served by this lane.
	chans []*Channel

	// pendCtrl indexes this lane's channels with pending reverse-direction
	// control by peer, so a departing data frame can pick a sibling
	// channel's credit/ack up (cross-channel coalescing). mustFlush queues
	// forced advertisements (window-threshold credits) for the end of the
	// current service pass: a data frame queued in the same pass carries
	// them for free, anything still pending then goes standalone.
	pendCtrl  map[ProcID][]*Channel
	mustFlush []*Channel

	// flushQ is the lane's flush wheel: channels whose piggyback window is
	// running, in deadline order (the delay is constant), covered by one
	// armed timer (wheelOn) for the head deadline.
	flushQ  list.FIFO[*Channel]
	wheelOn bool
	wheelFn func()

	// Adaptive-scheduler counters (under mu; LaneStats snapshots them).
	ctrlPiggyL      int64
	ctrlStandaloneL int64
	ctrlCoalescedL  int64

	// Per-lane freelists: the classic proc-level pools, sharded so lanes
	// never contend on recycling.
	reqFree  []*sendReq
	ctrlFree []*transport.Message
	dataFree []*transport.Message

	// Burst scratch, as in the classic send loop.
	sendRun   []*sendReq
	batchMsgs []*transport.Message
	rxScratch []rxItem

	// Out-queues: work that must complete in the scheduler domain.
	// Appended under mu, swapped out by runDrain. drainPosted collapses
	// redundant PostAsync calls into one pending drain.
	wake        []*mts.Thread
	fans        []*Thread
	deliver     []*transport.Message
	errs        []error
	drainPosted bool

	// Spare swap buffers (scheduler-domain only, see runDrain).
	spareWake    []*mts.Thread
	spareFans    []*Thread
	spareDeliver []*transport.Message
	spareErrs    []error

	drainFn   func()
	traceName string

	// Virtual-mode driver state (nil vd in real mode, where ring.Push wakes
	// the engine goroutine directly): stepArmed collapses redundant kicks
	// into one pending step event on the shared clock.
	vd        *virtualDriver
	stepFn    func()
	stepArmed atomic.Bool
}

// ---------------------------------------------------------------------------
// Engine drivers
//
// engineDriver is the seam between a lane's protocol logic and its execution
// vehicle. Real mode (the default) runs each lane engine as a goroutine that
// sleeps on its MPSC ring; virtual mode runs the same engine body as event
// callbacks scheduled on the discrete-event loop's vclock heap, so a whole
// mesh of procs shares one deterministic clock. The per-lane kick() is the
// hot-path half of the seam: producers call it after every ring push, and it
// compiles down to a single nil check in real mode.

type engineDriver interface {
	// start launches (real) or wires (virtual) one lane's engine.
	start(ln *lane)
	// stop tears the engines down at shutdown; runs in the scheduler domain.
	stop(p *Proc)
}

// goroutineDriver is today's behavior: one engine goroutine per lane,
// woken by ring pushes, stopped through laneStop.
type goroutineDriver struct{}

func (goroutineDriver) start(ln *lane) {
	ln.p.laneWG.Add(1)
	go ln.engine()
}

func (goroutineDriver) stop(p *Proc) {
	close(p.laneStop)
	p.laneWG.Wait()
}

// virtualDriver runs lane engines as events on the injected Clock: a kick
// schedules one zero-delay step on the vclock heap, and the step body runs
// in the simulation engine's single goroutine. No lane goroutines exist, so
// every lane mutex is uncontended and execution order is fully determined
// by the event queue's (time, seq) order — the determinism contract of
// core.NewVirtualMesh.
type virtualDriver struct {
	after func(d time.Duration, fn func())
}

func (d *virtualDriver) start(ln *lane) {
	ln.vd = d
	ln.stepFn = ln.step
}

func (d *virtualDriver) stop(p *Proc) {
	// Nothing to join: no goroutines were started, and a stale armed step
	// firing after shutdown finds empty queues and does nothing.
}

// kick notifies the lane's driver that work entered the rx ring. Real mode
// needs nothing — ring.Push already wakes the sleeping engine goroutine —
// so this is one predictable branch on the hot path.
func (ln *lane) kick() {
	if ln.vd != nil && ln.stepArmed.CompareAndSwap(false, true) {
		ln.vd.after(0, ln.stepFn)
	}
}

// ---------------------------------------------------------------------------
// Lane-local freelists (mirrors of the proc-level ones in core.go; callers
// hold ln.mu).

func (ln *lane) getReq() *sendReq {
	if n := len(ln.reqFree); n > 0 {
		req := ln.reqFree[n-1]
		ln.reqFree = ln.reqFree[:n-1]
		return req
	}
	return &sendReq{}
}

func (ln *lane) putReq(req *sendReq) {
	*req = sendReq{}
	ln.reqFree = append(ln.reqFree, req)
}

func (ln *lane) getCtrlMsg() *transport.Message {
	if n := len(ln.ctrlFree); n > 0 {
		m := ln.ctrlFree[n-1]
		ln.ctrlFree = ln.ctrlFree[:n-1]
		return m
	}
	return &transport.Message{Data: make([]byte, 0, 8)}
}

func (ln *lane) putCtrlMsg(m *transport.Message) {
	data := m.Data[:0]
	*m = transport.Message{Data: data}
	ln.ctrlFree = append(ln.ctrlFree, m)
}

func (ln *lane) getDataMsg() *transport.Message {
	if n := len(ln.dataFree); n > 0 {
		m := ln.dataFree[n-1]
		ln.dataFree = ln.dataFree[:n-1]
		return m
	}
	return &transport.Message{}
}

func (ln *lane) putDataMsg(m *transport.Message) {
	*m = transport.Message{}
	ln.dataFree = append(ln.dataFree, m)
}

// ---------------------------------------------------------------------------
// Proc-side setup

// sharded reports whether the proc runs the multi-lane hot path.
func (p *Proc) sharded() bool { return len(p.lanes) > 0 }

// Lanes returns the number of active send/recv lanes (1 in the classic
// two-system-thread configuration).
func (p *Proc) Lanes() int {
	if len(p.lanes) == 0 {
		return 1
	}
	return len(p.lanes)
}

// laneIndex picks the lane for a channel: an explicit ChannelConfig.Lane
// pins it (1-based, wrapped), otherwise Config.LaneHash (when set) or the
// peer hash spreads channels so traffic to different peers lands on
// different lanes.
func (p *Proc) laneIndex(peer ProcID, hint int) int {
	if hint > 0 {
		return (hint - 1) % len(p.lanes)
	}
	if p.cfg.LaneHash != nil {
		i := p.cfg.LaneHash(peer) % len(p.lanes)
		if i < 0 {
			i += len(p.lanes)
		}
		return i
	}
	return int(uint32(peer)) % len(p.lanes)
}

// initLanes builds the lane engines; called from New when the resolved lane
// count exceeds one and the endpoint can deliver raw frames.
func (p *Proc) initLanes(n int, fc transport.FrameCarrier) {
	p.laneBS, _ = p.cfg.Endpoint.(transport.BatchSender)
	p.laneStop = make(chan struct{})
	p.lanes = make([]*lane, n)
	for i := range p.lanes {
		ln := &lane{p: p, idx: i, rx: ring.New[rxItem]()}
		ln.drainFn = ln.runDrain
		ln.wheelFn = ln.wheelFire
		ln.pendCtrl = make(map[ProcID][]*Channel)
		if p.cfg.Tracer != nil {
			ln.traceName = fmt.Sprintf("%s/lane%d", p.cfg.TraceName, i)
		}
		p.lanes[i] = ln
	}
	p.shutdownFn = func() {
		if p.mayShutdownSharded() {
			p.wakeIfIdle(p.laneThread, "lanes idle")
		}
	}
	fc.SetFrameHandler(p.routeFrame)
	p.laneThread = p.cfg.RT.Create(fmt.Sprintf("ncs%d-lanes", p.cfg.ID), mts.PrioSystem, p.laneLoop)
	if p.cfg.VirtualTime {
		p.laneDriver = &virtualDriver{after: p.cfg.After}
	} else {
		p.laneDriver = goroutineDriver{}
	}
	for _, ln := range p.lanes {
		p.laneDriver.start(ln)
	}
}

// routeFrame is the transport's frame handler: it decodes the frame and
// resolves its channel — and the channels of any cross-channel
// piggybacked control words — in the *calling* goroutine (a peer's lane
// engine or scheduler thread), then hands the message to the owning
// lane's ring. The engine itself therefore never takes the channel-table
// lock.
func (p *Proc) routeFrame(fb *wire.Buf) {
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		panic("core: self-produced message failed to decode: " + err.Error())
	}
	var c, cc, ca *Channel
	if m.Tag != tagBarrier && m.Tag != tagBarrierRel && !isSigTag(m.Tag) {
		c, _ = p.lookupChannel(m.From, m.Channel)
		if m.HasCredit && m.CreditChan != m.Channel {
			cc, _ = p.lookupChannel(m.From, m.CreditChan)
		}
		if m.HasAck && m.AckChan != m.Channel {
			ca, _ = p.lookupChannel(m.From, m.AckChan)
		}
	}
	ln := p.lanes[p.laneIndex(m.From, 0)]
	if c != nil {
		ln = c.ln
	}
	p.statRingPush.Add(1)
	ln.rx.Push(rxItem{m: m, c: c, cc: cc, ca: ca})
	ln.kick()
}

// ---------------------------------------------------------------------------
// Engine

// engine is the lane's goroutine: drain the ring, process arrivals in
// priority order, service the send queue the processing may have fed
// (credit releases, acks opening windows, retransmissions), then hand
// scheduler-domain completions over in one PostAsync.
func (ln *lane) engine() {
	defer ln.p.laneWG.Done()
	tr := ln.p.cfg.Tracer
	for {
		items := ln.rx.Drain()
		if len(items) == 0 {
			if tr != nil {
				tr.Set(ln.traceName, trace.Idle)
			}
			if !ln.rx.Sleep(ln.p.laneStop) {
				if tr != nil {
					tr.Close(ln.traceName)
				}
				return
			}
			continue
		}
		if tr != nil {
			tr.Set(ln.traceName, trace.Comm)
			tr.Mark(ln.traceName, fmt.Sprintf("q=%d", len(items)))
		}
		ln.mu.Lock()
		post := ln.ingestLocked(items)
		ln.mu.Unlock()
		if post {
			ln.p.cfg.RT.PostAsync(ln.drainFn)
		}
		// During shutdown the keeper thread parks until every lane is
		// quiescent; a frame the engine just consumed (the peer's last
		// ack or credit) may have been the very thing it was waiting out,
		// so re-run the shutdown check in the scheduler domain.
		if ln.p.closing.Load() {
			ln.p.cfg.RT.PostAsync(ln.p.shutdownFn)
		}
	}
}

// step is the virtual-mode engine body: one event callback doing what one
// wakeup of the engine goroutine does — drain the ring, process arrivals,
// service the send scheduler — repeated until the ring is empty. It differs
// from engine() in exactly the ways the discrete-event loop requires: it
// runs in the simulation engine's goroutine (scheduler domain) at a definite
// virtual instant, so the deferred out-queue drain runs inline instead of
// through Runtime.PostAsync (which the sim engine never services), and the
// closing-time shutdown re-check calls the predicate directly.
func (ln *lane) step() {
	ln.stepArmed.Store(false)
	tr := ln.p.cfg.Tracer
	worked := false
	for {
		items := ln.rx.Drain()
		if len(items) == 0 {
			break
		}
		worked = true
		if tr != nil {
			tr.Set(ln.traceName, trace.Comm)
			tr.Mark(ln.traceName, fmt.Sprintf("q=%d", len(items)))
		}
		ln.mu.Lock()
		post := ln.ingestLocked(items)
		ln.mu.Unlock()
		if post {
			ln.runDrain()
		}
	}
	if tr != nil && worked {
		tr.Set(ln.traceName, trace.Idle)
	}
	if worked && ln.p.closing.Load() {
		ln.p.shutdownFn()
	}
}

// ingestLocked is the shared body of engine and step: queue one drained
// ring batch by priority, process it, service the send scheduler the
// processing may have fed, and report whether a drain must be scheduled.
func (ln *lane) ingestLocked(items []rxItem) (post bool) {
	ln.p.statRingDrain.Add(int64(len(items)))
	for i, it := range items {
		level := ctrlLevel
		if it.m.Tag >= 0 && it.c != nil {
			level = it.c.priority
		}
		ln.rxq.push(level, it)
		items[i] = rxItem{}
	}
	ln.processLocked()
	ln.serviceLocked()
	return ln.queueDrainLocked()
}

// queueDrainLocked marks a drain as needed if the out-queues are non-empty;
// the caller PostAsyncs drainFn exactly when it returns true.
func (ln *lane) queueDrainLocked() bool {
	if ln.drainPosted {
		return false
	}
	if len(ln.wake) == 0 && len(ln.fans) == 0 && len(ln.deliver) == 0 && len(ln.errs) == 0 {
		return false
	}
	ln.drainPosted = true
	return true
}

// processLocked is the sharded recvLoop body: demultiplex everything queued
// in rxq — control to the disciplines, data through error/flow control —
// deferring scheduler-domain work (waiter dispatch, barrier state,
// exceptions) to the out-queues.
func (ln *lane) processLocked() {
	for !ln.rxq.empty() {
		it := ln.rxq.pop()
		m, c := it.m, it.c
		if m.Tag < 0 {
			switch m.Tag {
			case tagFlowAck, tagGBNAck:
				if c == nil {
					// Control for a channel nobody has open: almost always
					// an ack or credit racing the channel's finalize (the
					// signaled close removed it from the table). Cumulative
					// control is supersede-safe, so drop it and count.
					ln.p.statLateCtrl.Add(1)
					m.Release()
					continue
				}
				if m.Tag == tagFlowAck {
					c.flow.onControl(m)
				} else {
					c.errc.onControl(m)
				}
				m.Release()
			case tagBarrier, tagBarrierRel:
				// Barrier state is proc-level scheduler-domain state.
				ln.deliver = append(ln.deliver, m)
			case tagSigSetup, tagSigConnect, tagSigReject, tagSigRelease, tagSigRelComp, tagSigBeat:
				// Signaling is proc-level scheduler-domain state, like
				// barriers: the drain dispatches to onSigMsg.
				ln.deliver = append(ln.deliver, m)
			default:
				ln.errs = append(ln.errs, fmt.Errorf("unknown control tag %d from proc %d", m.Tag, m.From))
				m.Release()
			}
			continue
		}
		if c == nil {
			ln.errs = append(ln.errs, fmt.Errorf("data on unopened channel %d from proc %d", m.Channel, m.From))
			m.Release()
			continue
		}
		if m.HasCredit {
			if it.cc != nil {
				ln.applyCrossLocked(it.cc, tagFlowAck, m.Credit)
			} else {
				c.flow.onCredit(m.Credit)
			}
		}
		if m.HasAck {
			if it.ca != nil {
				ln.applyCrossLocked(it.ca, tagGBNAck, m.Ack)
			} else {
				c.errc.onAck(m.Ack)
			}
		}
		if c.closed {
			ln.errs = append(ln.errs, fmt.Errorf("data on closed channel %d from proc %d", m.Channel, m.From))
			m.Release()
			continue
		}
		if !c.errc.onData(m) {
			continue
		}
		c.received.Add(1)
		c.bytesReceived.Add(int64(len(m.Data)))
		c.flow.onDelivered(m)
		ln.deliver = append(ln.deliver, m)
	}
}

// requeueRxLocked re-queues in-order flushes from a buffering discipline
// (selective repeat) ahead of anything already waiting at the channel's
// level, exactly as the classic path prepends into rxIn.
func (ln *lane) requeueRxLocked(c *Channel, flushed []*transport.Message) {
	items := ln.rxScratch[:0]
	for _, m := range flushed {
		items = append(items, rxItem{m: m, c: c})
	}
	ln.rxq.prependLevel(c.priority, items)
	ln.rxScratch = items[:0]
}

// ---------------------------------------------------------------------------
// Sending

// serviceLocked is the sharded sendLoop body: drain the lane's send
// scheduler (control first, then DRR across channels) through admission,
// piggyback attachment, cross-channel coalescing, and same-destination
// batching. Unlike the classic loop it runs inline in whatever context fed
// the queue — a sending thread, the engine, a timer — so an uncontended
// send completes with no context switch at all. Forced credit
// advertisements queued by the flow tier (mustFlush) are resolved at the
// end of the pass: a data frame serviced in the same pass carries them for
// free, anything still pending goes standalone.
func (ln *lane) serviceLocked() {
	p := ln.p
	run := ln.sendRun[:0]
	for {
		for !ln.pending.empty() {
			req := ln.pending.pop()
			if req.m.Tag >= 0 && !req.raw {
				if req.ch.sendUnavailable() {
					c := req.ch
					ln.failSendLocked(req)
					ln.errs = append(ln.errs, c.sendFailErr())
					continue
				}
				if !req.flowOK {
					if !req.ch.flow.admit(req) {
						continue
					}
					req.flowOK = true
				}
				if !req.ch.errc.admit(req) {
					continue
				}
			}
			if req.m.Tag >= 0 && req.ch != nil {
				req.ch.attachPiggy(req.m)
				ln.attachCrossLocked(req.ch, req.m)
			}
			if len(run) > 0 && (req.m.To != run[len(run)-1].m.To || len(run) >= maxSendBurst) {
				run = ln.flushRunLocked(run)
			}
			run = append(run, req)
			if p.laneBS == nil {
				run = ln.flushRunLocked(run)
			}
		}
		if len(ln.mustFlush) == 0 {
			break
		}
		mf := ln.mustFlush
		ln.mustFlush = nil
		for i, c := range mf {
			c.mustFlushOn = false
			if !c.closed && (c.pendCreditOn || len(c.pendAcks) > 0) {
				// No data frame in this pass picked the forced
				// advertisement up; it must go now (the peer's window is
				// at its sync threshold).
				c.flushCtrl()
			}
			mf[i] = nil
		}
		if ln.mustFlush == nil {
			ln.mustFlush = mf[:0]
		}
	}
	ln.sendRun = ln.flushRunLocked(run)
}

// attachCrossLocked fills a departing data frame's free credit/ack slots
// from *sibling* channels to the same peer that have control pending —
// the lane-aware cross-channel coalescing that keeps the piggyback share
// high when a peer's control and data flow on different channels. Each
// word is stamped with its owning channel (one extra wire byte per
// foreign word). The default channel's words never ride a sibling: the
// wire reads an owner of 0 as "the frame's own channel", so they would
// land on the carrying channel's disciplines.
func (ln *lane) attachCrossLocked(c *Channel, m *transport.Message) {
	if m.HasCredit && m.HasAck {
		return
	}
	sibs := ln.pendCtrl[c.peer]
	for i := 0; i < len(sibs); {
		if m.HasCredit && m.HasAck {
			return
		}
		s := sibs[i]
		if s == c || s.closed || s.id == 0 {
			i++
			continue
		}
		attached := false
		if s.pendCreditOn && !m.HasCredit {
			m.Credit, m.HasCredit = s.pendCredit, true
			m.CreditChan = s.id
			s.pendCreditOn = false
			s.ctrlPiggy.Add(1)
			s.ctrlCoalesced.Add(1)
			ln.ctrlPiggyL++
			ln.ctrlCoalescedL++
			s.flow.creditSent(s.pendCredit)
			attached = true
		}
		if n := len(s.pendAcks); n > 0 && !m.HasAck {
			m.Ack, m.HasAck = s.pendAcks[0], true
			m.AckChan = s.id
			copy(s.pendAcks, s.pendAcks[1:])
			s.pendAcks = s.pendAcks[:n-1]
			s.ctrlPiggy.Add(1)
			s.ctrlCoalesced.Add(1)
			ln.ctrlPiggyL++
			ln.ctrlCoalescedL++
			attached = true
		}
		if attached {
			ln.markDecision(s, "coalesce")
		}
		if !s.pendCreditOn && len(s.pendAcks) == 0 {
			// Drained: pendDropLocked swap-removes s, moving the old tail
			// into slot i — re-read and revisit the slot.
			ln.pendDropLocked(s)
			sibs = ln.pendCtrl[c.peer]
			continue
		}
		i++
	}
}

// applyCrossLocked delivers a cross-channel piggybacked control word to
// its owning channel: inline when that channel lives on this lane,
// otherwise as a synthetic standalone control message forwarded to the
// owner's ring (rare — only an explicit cross-lane pin puts two channels
// to one peer on different lanes, so the allocation stays off the
// steady-state hot path).
func (ln *lane) applyCrossLocked(t *Channel, tag int, v uint32) {
	if t.ln == ln {
		if tag == tagFlowAck {
			t.flow.onCredit(v)
		} else {
			t.errc.onAck(v)
		}
		return
	}
	m := &transport.Message{
		From: t.peer, To: ln.p.cfg.ID, Channel: t.id, Tag: tag,
		Data: wire.AppendUint32(nil, v),
	}
	ln.p.statRingPush.Add(1)
	t.ln.rx.Push(rxItem{m: m, c: t})
	t.ln.kick()
}

// ---------------------------------------------------------------------------
// Pending-control index and flush wheel

// pendAddLocked files c in the lane's pending-control index (by peer) so
// departing data frames can find its credit/ack.
func (ln *lane) pendAddLocked(c *Channel) {
	if c.inPend {
		return
	}
	c.inPend = true
	ln.pendCtrl[c.peer] = append(ln.pendCtrl[c.peer], c)
}

// pendDropLocked removes c from the pending-control index once nothing is
// pending (swap-remove; order within a peer's list is not meaningful).
func (ln *lane) pendDropLocked(c *Channel) {
	c.flushDeferred = false
	if !c.inPend {
		return
	}
	c.inPend = false
	s := ln.pendCtrl[c.peer]
	for i, x := range s {
		if x == c {
			s[i] = s[len(s)-1]
			s[len(s)-1] = nil
			ln.pendCtrl[c.peer] = s[:len(s)-1]
			break
		}
	}
}

// rideImminentLocked reports whether a data frame toward c's peer is
// queued or imminent on this lane — a frame the channel's pending control
// could ride instead of flushing standalone: queued sends awaiting
// service, sends parked inside a flow window or error-control tier that
// will re-emerge shortly. Only c's own frames can carry the default
// channel's control (see attachCrossLocked).
func (ln *lane) rideImminentLocked(c *Channel) bool {
	for _, s := range ln.chans {
		if s.peer != c.peer || s.closed || (c.id == 0 && s != c) {
			continue
		}
		if s.sq.Size() > 0 || s.flow.queued() > 0 || s.errc.queued() > 0 {
			return true
		}
	}
	return false
}

// armWheelLocked schedules the lane's flush wheel for its head deadline.
// Entries enter with a constant delay, so the queue is in deadline order
// and one armed timer covers every waiting channel on the lane.
func (ln *lane) armWheelLocked() {
	if ln.wheelOn || ln.flushQ.Size() == 0 {
		return
	}
	d := ln.flushQ.Peek().flushAt - time.Duration(ln.p.cfg.RT.Now())
	if d < 0 {
		d = 0
	}
	ln.wheelOn = true
	ln.p.flushTimers.Add(1)
	ln.p.cfg.After(d, ln.wheelFn)
}

// wheelFire is the lane flush wheel (scheduler domain, via Config.After):
// for every channel whose piggyback window expired, either flush its
// control standalone or — if a same-peer data frame is imminent on the
// lane — defer one extra window to ride it (bounded: the second expiry
// always flushes).
func (ln *lane) wheelFire() {
	ln.p.flushTimers.Add(-1)
	ln.mu.Lock()
	ln.wheelOn = false
	now := time.Duration(ln.p.cfg.RT.Now())
	for ln.flushQ.Size() > 0 && ln.flushQ.Peek().flushAt <= now {
		c := ln.flushQ.Pop()
		c.flushOn = false
		if c.closed {
			ln.pendDropLocked(c)
			continue
		}
		if !c.pendCreditOn && len(c.pendAcks) == 0 {
			// A data frame carried everything while the window ran.
			ln.pendDropLocked(c)
			continue
		}
		if !c.flushDeferred && ln.rideImminentLocked(c) {
			c.flushDeferred = true
			c.flushOn = true
			c.flushAt = now + ln.p.ctrlFlush
			ln.flushQ.Push(c)
			ln.markDecision(c, "ctrl-defer")
			continue
		}
		c.flushDeferred = false
		c.flushCtrl()
	}
	ln.armWheelLocked()
	ln.serviceLocked()
	ln.mu.Unlock()
	ln.runDrain()
}

// markDecision emits a scheduler-decision mark ("coalesce", "ctrl-defer")
// on the lane's trace timeline.
func (ln *lane) markDecision(c *Channel, kind string) {
	if tr := ln.p.cfg.Tracer; tr != nil {
		tr.Mark(ln.traceName, kind+" "+c.lane)
	}
}

// flushRunLocked hands one same-destination run to the carrier and
// completes the requests: counters, deferred wakeups, freelist recycling.
func (ln *lane) flushRunLocked(run []*sendReq) []*sendReq {
	if len(run) == 0 {
		return run
	}
	p := ln.p
	if p.cfg.Tracer != nil {
		for _, req := range run {
			p.traceChan(req.ch, trace.Comm)
		}
	}
	if p.laneBS != nil && len(run) > 1 {
		ms := ln.batchMsgs[:0]
		for _, req := range run {
			ms = append(ms, req.m)
		}
		p.laneBS.SendBatch(nil, ms)
		for i := range ms {
			ms[i] = nil
		}
		ln.batchMsgs = ms[:0]
	} else {
		for _, req := range run {
			p.cfg.Endpoint.Send(nil, req.m)
		}
	}
	for i, req := range run {
		if req.ch != nil && !req.raw {
			req.ch.sent.Add(1)
			req.ch.bytesSent.Add(int64(len(req.m.Data)))
		}
		if p.cfg.Tracer != nil {
			p.traceChan(req.ch, trace.Idle)
		}
		if req.done != nil {
			// Inline sender still inside lane.send on this lane: it
			// observes the flag before parking, so no wakeup is needed.
			*req.done = true
		} else if req.caller != nil {
			ln.wake = append(ln.wake, req.caller)
		}
		if req.fan != nil {
			ln.fans = append(ln.fans, req.fan)
		}
		if req.ctrl {
			ln.putCtrlMsg(req.m)
		} else {
			ln.putDataMsg(req.m)
		}
		ln.putReq(req)
		run[i] = nil
	}
	return run[:0]
}

// detachChanLocked strips a finalizing channel out of every lane structure
// it participates in: queued sends fail with the typed closed error, the
// DRR ring and pending-control index forget it, and it leaves the lane's
// channel list. Caller holds ln.mu; the channel must already be in the
// CLOSED state so no new work can re-enter behind the sweep.
func (ln *lane) detachChanLocked(c *Channel) {
	for c.sq.Size() > 0 {
		req := c.sq.Pop()
		ln.failSendLocked(req)
		ln.errs = append(ln.errs, c.sendFailErr())
	}
	ln.pending.removeChan(c)
	ln.pendDropLocked(c)
	for i, x := range ln.chans {
		if x == c {
			ln.chans[i] = ln.chans[len(ln.chans)-1]
			ln.chans[len(ln.chans)-1] = nil
			ln.chans = ln.chans[:len(ln.chans)-1]
			break
		}
	}
}

// failSendLocked is the lane-domain failSend: recycle the request and
// defer its caller's wakeup to the drain.
func (ln *lane) failSendLocked(req *sendReq) {
	caller, fan, done := req.caller, req.fan, req.done
	if !req.ctrl && req.m != nil {
		ln.putDataMsg(req.m)
	}
	ln.putReq(req)
	if done != nil {
		*done = true
	} else if caller != nil {
		ln.wake = append(ln.wake, caller)
	}
	if fan != nil {
		ln.fans = append(ln.fans, fan)
	}
}

// laneSend is the sharded Thread.Send/Channel.Send body: build the message
// and request from the lane's freelists, enqueue, and service the lane
// inline. If the request flushed during the inline service (the common,
// uncongested case) the thread never parks — the send completes in the
// caller's own time slice, which is where the single-core speedup over the
// classic park/dispatch/park cycle comes from. If a discipline deferred
// it, the thread parks and the eventual flush (engine or timer) wakes it
// through the drain.
func (c *Channel) laneSend(t *Thread, tag, toThread int, data []byte) {
	p := c.p
	if pd := p.deadPeers[c.peer]; pd != nil {
		// Fail fast: the peer has been declared dead. Without this check a
		// send after the failure sweep would resurrect a fresh default
		// channel (the sweep removed the old one) and feed frames into the
		// void forever. Scheduler-domain read: thread bodies run there.
		p.exception(pd)
		return
	}
	p.traceThread(t, trace.Idle)
	ln := c.ln
	ln.mu.Lock()
	if c.sendUnavailable() {
		ln.mu.Unlock()
		p.exception(c.sendFailErr())
		p.traceThread(t, trace.Compute)
		return
	}
	m := ln.getDataMsg()
	m.From = p.cfg.ID
	m.To = c.peer
	m.FromThread = t.idx
	m.ToThread = toThread
	m.Tag = tag
	m.Channel = c.id
	m.Data = data
	req := ln.getReq()
	req.m = m
	req.ch = c
	t.sendDone = false
	req.done = &t.sendDone
	ln.pending.push(c.priority, req)
	ln.serviceLocked()
	done := t.sendDone
	if !done {
		// Deferred inside a discipline: completion happens under this same
		// lock later, so clearing the flag pointer and installing the
		// parked caller here is race-free. The engine may flush it before
		// this thread reaches Park, in which case the wakeup surfaces
		// either through drain's self-wake detection below or, after the
		// park, through a Posted drain — which runs only between
		// dispatches, i.e. strictly after the park takes effect.
		req.done = nil
		req.caller = t.mt
	}
	ln.mu.Unlock()
	// The inline service may have completed other requests (deferred sends
	// whose credit arrived) or raised errors; finish that scheduler-domain
	// work in this thread's context.
	if ln.drain(t.mt) {
		done = true
	}
	if !done {
		t.mt.Park("ncs send")
	}
	p.traceThread(t, trace.Compute)
	p.sent.Add(1)
}

// ---------------------------------------------------------------------------
// Scheduler-domain drain

// runDrain moves the lane's deferred scheduler-domain work into the
// scheduler: deliver data to waiters/store, route barrier control, wake
// send callers, retire fan requests, raise exceptions. Runs only in the
// scheduler domain (a sending thread inline, or PostAsync between
// dispatches).
func (ln *lane) runDrain() { ln.drain(nil) }

// drain is runDrain with self-wake detection: a thread draining inline on
// its own send path passes its own mts thread, and a wakeup addressed to it
// is reported through the return value instead of a no-op Unblock (the
// thread is still running — it has not parked yet — so Unblock would lose
// the wakeup and the thread would park forever). self carries at most one
// pending wakeup, because a thread has at most one outstanding send.
//
// Reentrancy: processing a barrier message can send control (sendCtrlVec),
// which drains a lane inline — possibly this one. The spare swap buffers
// are therefore *claimed* (nil'd) while in use so a nested drain allocates
// fresh scratch instead of aliasing the batch being processed.
func (ln *lane) drain(self *mts.Thread) (selfWoken bool) {
	p := ln.p
	for {
		ln.mu.Lock()
		wake, fans, del, errs := ln.wake, ln.fans, ln.deliver, ln.errs
		if len(wake) == 0 && len(fans) == 0 && len(del) == 0 && len(errs) == 0 {
			ln.drainPosted = false
			ln.mu.Unlock()
			return selfWoken
		}
		ln.wake = ln.spareWake[:0]
		ln.fans = ln.spareFans[:0]
		ln.deliver = ln.spareDeliver[:0]
		ln.errs = ln.spareErrs[:0]
		ln.spareWake, ln.spareFans, ln.spareDeliver, ln.spareErrs = nil, nil, nil, nil
		ln.mu.Unlock()

		for i, m := range del {
			if m.Tag < 0 {
				if isSigTag(m.Tag) {
					p.onSigMsg(m)
				} else {
					p.onBarrierMsg(m)
				}
				m.Release()
			} else {
				p.dispatchData(nil, m)
			}
			del[i] = nil
		}
		for i, t := range wake {
			if t == self {
				selfWoken = true
			} else {
				p.cfg.RT.Unblock(t, false)
			}
			wake[i] = nil
		}
		for i, f := range fans {
			p.fanDone(f)
			fans[i] = nil
		}
		for i, err := range errs {
			p.exception(err)
			errs[i] = nil
		}
		ln.spareWake = wake[:0]
		ln.spareFans = fans[:0]
		ln.spareDeliver = del[:0]
		ln.spareErrs = errs[:0]
	}
}

// ---------------------------------------------------------------------------
// Shutdown

// mayShutdownSharded is the lane-mode shutdown predicate: user threads are
// done, no channel's error control is awaiting acknowledgement, and every
// lane has drained its queues.
func (p *Proc) mayShutdownSharded() bool {
	if !p.closing.Load() {
		return false
	}
	p.chanMu.RLock()
	chans := make([]*Channel, 0, len(p.channels))
	for _, c := range p.channels {
		chans = append(chans, c)
	}
	p.chanMu.RUnlock()
	for _, c := range chans {
		ln := c.lockLane()
		pend := c.errc.pending()
		ln.mu.Unlock()
		if pend != 0 {
			return false
		}
	}
	for _, ln := range p.lanes {
		ln.mu.Lock()
		busy := !ln.pending.empty() || !ln.rxq.empty()
		ln.mu.Unlock()
		if busy || ln.rx.Len() > 0 {
			return false
		}
	}
	return true
}

// laneLoop is the lanes' shutdown supervisor: a system thread that parks
// until the process may terminate, then stops the engines and performs the
// final drain. It replaces the classic send/recv system threads' exit
// paths (the lane engines themselves run outside the mts scheduler — as
// plain goroutines in real mode, as clock events in virtual mode).
func (p *Proc) laneLoop(st *mts.Thread) {
	for !p.mayShutdownSharded() {
		st.Park("lanes idle")
	}
	p.laneDriver.stop(p)
	// Engines may have queued completions after their last scheduled
	// drain ran (or for drains the exiting Run loop would never execute).
	for _, ln := range p.lanes {
		ln.runDrain()
	}
}

// ---------------------------------------------------------------------------
// Introspection

// LaneStats is one lane's scheduler snapshot.
type LaneStats struct {
	// Lane is the lane index and Channels how many channels it serves.
	Lane     int
	Channels int
	// CtrlPiggybacked / CtrlStandalone count control words that rode data
	// frames vs standalone control frames sent by this lane's channels;
	// CtrlCoalesced is the subset of piggybacked words that rode a
	// *different* channel's frame. PiggyShare is
	// piggybacked/(piggybacked+standalone).
	CtrlPiggybacked int64
	CtrlStandalone  int64
	CtrlCoalesced   int64
	PiggyShare      float64
	// DRRRounds counts completed deficit-round-robin rounds of the lane's
	// send scheduler.
	DRRRounds int64
	// MigratedIn is always 0: a channel keeps the lane it was placed on
	// for life. The field is kept so existing readers still compile.
	MigratedIn int64
}

// LaneStats returns a per-lane scheduler snapshot, nil on a classic
// (single-lane) proc. Safe to call while traffic is flowing.
func (p *Proc) LaneStats() []LaneStats {
	if !p.sharded() {
		return nil
	}
	out := make([]LaneStats, len(p.lanes))
	for i, ln := range p.lanes {
		ln.mu.Lock()
		st := LaneStats{
			Lane:            i,
			Channels:        len(ln.chans),
			CtrlPiggybacked: ln.ctrlPiggyL,
			CtrlStandalone:  ln.ctrlStandaloneL,
			CtrlCoalesced:   ln.ctrlCoalescedL,
			DRRRounds:       ln.pending.rounds,
		}
		ln.mu.Unlock()
		if t := st.CtrlPiggybacked + st.CtrlStandalone; t > 0 {
			st.PiggyShare = float64(st.CtrlPiggybacked) / float64(t)
		}
		out[i] = st
	}
	return out
}
