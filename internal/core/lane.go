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

// This file is the NCS send/receive engine: the paper's Figure 8 send and
// receive system threads, organized as *lanes*. Each lane owns its own send
// scheduler, receive queue, freelists, flush wheel, and wakeup. A channel is
// pinned to exactly one lane for its lifetime (default: hash of the peer,
// overridable via ChannelConfig.Lane), so priority and per-channel FIFO
// ordering hold within a channel while channels on different lanes run on
// separate cores.
//
// The lane code is one; an engineDriver decides what executes it. A proc
// with one lane runs it on the paper's two system threads, S and R, in the
// mts scheduler (schedDriver), so lanes=1 is the paper's model by
// construction. More lanes run as engine goroutines (goroutineDriver) or,
// under a discrete-event loop, as clock events (virtualDriver).
//
// Execution domains:
//
//   - Lane domain: everything a channel owns (discipline state, piggyback
//     words, counters' non-atomic neighbors, the lane's queues and
//     freelists) is guarded by lane.mu. Timers enter it through
//     Channel.wrapTimer. Under the goroutine and virtual drivers senders
//     service it inline (laneSend locks, enqueues, services, unlocks — no
//     system-thread hop at all) and arriving frames enter through a
//     multi-producer ring drained by the engine; under schedDriver S does
//     all servicing and R all receive processing.
//   - Scheduler domain: thread wakeups, receive matching (waiters/store),
//     barrier and signaling state, and exception handlers. Lane code never
//     calls them under lane.mu — it appends to the lane's out-queues
//     (wake/fans/deliver/errs) and a drain runs them once the lock is
//     released: inline when the lane code already runs in the scheduler
//     domain, through Runtime.PostAsync from an engine goroutine.
//
// Lock order: Proc.chanMu (channel table) before lane.mu, never the
// reverse. Nothing blocks or parks while holding lane.mu (PostAsync and
// ring pushes are non-blocking by construction, and S releases the lock
// around carrier calls that park it), so a scheduler-domain thread waiting
// on lane.mu always makes progress.
//
// Lane count defaults to min(GOMAXPROCS, 4).

// rxItem is one arriving message routed to a lane: the decoded frame plus
// its channel, resolved where the message is delivered (routeMsg) so the
// engine never touches the channel table. cc/ca name the channels a
// cross-channel piggybacked credit/ack word belongs to when that differs
// from the frame's own channel (lane-aware coalescing).
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
	// rxq is its receive priority queue.
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

	// Per-lane freelists of the send path's bookkeeping, so lanes never
	// contend on recycling. dataFree holds sender-side data Message
	// structs: every carrier serializes before Send returns and both
	// error-control disciplines buffer private copies, so once a data frame
	// is handed to the carrier nothing references the struct.
	reqFree  []*sendReq
	ctrlFree []*transport.Message
	dataFree []*transport.Message

	// Burst scratch: the same-destination run under accumulation and the
	// message vector handed to a transport.BatchSender.
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

	// Driver state. Under the goroutine driver both are nil (ring.Push
	// wakes the engine goroutine directly). vd is the virtual driver, whose
	// stepArmed collapses redundant kicks into one pending step event on the
	// shared clock; sd is the scheduler-domain driver's S/R thread pair.
	vd        *virtualDriver
	stepFn    func()
	stepArmed atomic.Bool
	sd        *schedDriver
}

// ---------------------------------------------------------------------------
// Engine drivers
//
// engineDriver is the seam between the lanes' protocol logic and what
// executes it. New picks one per proc:
//
//   - schedDriver (one lane): the paper's S and R system threads, mts
//     threads at system priority in the scheduler domain. It is the only
//     driver under the sim harnesses' RecvCharge/ArrivalPollDelay hooks and
//     on carriers without a raw-frame path.
//   - goroutineDriver (real mode, several lanes, a FrameCarrier): one
//     engine goroutine per lane sleeping on its MPSC ring.
//   - virtualDriver (Config.VirtualTime, several lanes): the goroutine
//     engine's body as event callbacks on the discrete-event loop's clock,
//     so a whole mesh of procs shares one deterministic timeline.
//
// The per-lane kick() is the hot-path half of the seam: producers call it
// after every ring push, and under the goroutine driver it is two nil
// checks.
type engineDriver interface {
	// start creates the proc's system threads and launches (goroutine) or
	// wires (virtual, sched) every lane's engine.
	start(p *Proc)
	// wakeIdle wakes the proc's system threads parked at their idle points
	// so they re-check the shutdown predicate; scheduler domain.
	wakeIdle(p *Proc)
}

// goroutineDriver runs one engine goroutine per lane, woken by ring pushes.
// A keeper system thread (startKeeper) holds the runtime open until the proc
// may shut down, then closes stop and joins the engines.
type goroutineDriver struct {
	keeper *mts.Thread
	stop   chan struct{}
	wg     sync.WaitGroup
}

func (d *goroutineDriver) start(p *Proc) {
	d.stop = make(chan struct{})
	d.keeper = p.startKeeper(func() {
		close(d.stop)
		d.wg.Wait()
	})
	for _, ln := range p.lanes {
		d.wg.Add(1)
		go ln.engine(d)
	}
}

func (d *goroutineDriver) wakeIdle(p *Proc) { p.wakeIfIdle(d.keeper, "lanes idle") }

// virtualDriver runs lane engines as events on the injected Clock: a kick
// schedules one zero-delay step on the vclock heap, and the step body runs
// in the simulation engine's single goroutine. No lane goroutines exist, so
// every lane mutex is uncontended and execution order is fully determined
// by the event queue's (time, seq) order — the determinism contract of
// core.NewVirtualMesh.
type virtualDriver struct {
	after  func(d time.Duration, fn func())
	keeper *mts.Thread
}

func (d *virtualDriver) start(p *Proc) {
	// Nothing to join at shutdown: no goroutines exist, and a stale armed
	// step firing after it finds empty queues and does nothing.
	d.keeper = p.startKeeper(nil)
	for _, ln := range p.lanes {
		ln.vd = d
		ln.stepFn = ln.step
	}
}

func (d *virtualDriver) wakeIdle(p *Proc) { p.wakeIfIdle(d.keeper, "lanes idle") }

// schedDriver runs the proc's single lane on the paper's two system
// threads (Figure 8): S services the send scheduler and is the only caller
// of the carrier, R processes arrivals one at a time. Both are mts threads
// in the scheduler domain, so a carrier that charges CPU by parking S and a
// RecvCharge that parks R model the 1995 host exactly as the paper's
// threads do. Everything else — a sending thread, a timer — only queues
// work and wakes S (serviceLocked), and the carrier's handler only queues
// arrivals and wakes R (kick).
type schedDriver struct {
	s, r  *mts.Thread
	wakeR func()
	// exiting latches the shutdown decision: once S or R has seen the
	// predicate hold, the other exits at its next idle point even if a late
	// arrival (a peer's last credit) has since entered the ring — R, the
	// only thread that could drain it, may already be gone.
	exiting bool
}

// idleExit reports whether a system thread at its idle point should exit:
// the proc may shut down (or its sibling already decided so). On exit it
// closes the thread's trace row and wakes the sibling to do the same.
func (d *schedDriver) idleExit(p *Proc, row string, sibling *mts.Thread, siblingIdle string) bool {
	if !d.exiting && !p.mayShutdown() {
		return false
	}
	d.exiting = true
	p.traceSysClose(row)
	p.wakeIfIdle(sibling, siblingIdle)
	return true
}

func (d *schedDriver) start(p *Proc) {
	ln := p.lanes[0]
	ln.sd = d
	ln.traceName = p.cfg.TraceName + "/send"
	d.wakeR = func() { p.wakeIfIdle(d.r, "recv idle") }
	d.s = p.cfg.RT.Create(fmt.Sprintf("ncs%d-send", p.cfg.ID), mts.PrioSystem, ln.sendSys)
	d.r = p.cfg.RT.Create(fmt.Sprintf("ncs%d-recv", p.cfg.ID), mts.PrioSystem, ln.recvSys)
}

func (d *schedDriver) wakeIdle(p *Proc) {
	p.wakeIfIdle(d.s, "send idle")
	p.wakeIfIdle(d.r, "recv idle")
}

// kick notifies the lane's driver that work entered the rx ring. The
// goroutine driver needs nothing — ring.Push already wakes the sleeping
// engine goroutine. Under schedDriver it wakes R, after
// Config.ArrivalPollDelay when one is set: a poll-discovered arrival is
// noticed when the underlying p4 poll would notice it, and an earlier wake
// (a later arrival, a natural switch) finds this message too.
func (ln *lane) kick() {
	if ln.vd != nil {
		if ln.stepArmed.CompareAndSwap(false, true) {
			ln.vd.after(0, ln.stepFn)
		}
		return
	}
	if sd := ln.sd; sd != nil {
		p := ln.p
		if pd := p.cfg.ArrivalPollDelay; pd != nil {
			if d := pd(); d > 0 {
				p.cfg.After(d, sd.wakeR)
				return
			}
		}
		sd.wakeR()
	}
}

// ---------------------------------------------------------------------------
// Lane-local freelists (callers hold ln.mu).

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

// Lanes returns the number of send/recv lanes (1 on the paper's
// two-system-thread configuration).
func (p *Proc) Lanes() int { return len(p.lanes) }

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

// initLanes builds n lanes and starts them on driver d; called from New.
func (p *Proc) initLanes(n int, d engineDriver) {
	p.laneBS, _ = p.cfg.Endpoint.(transport.BatchSender)
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
	p.shutdownFn = p.shutdownCheck
	p.laneDriver = d
	d.start(p)
}

// routeFrame is the FrameCarrier handler: it decodes the frame in the
// *calling* goroutine (a peer's lane engine or scheduler thread) and routes
// it like any other arrival.
func (p *Proc) routeFrame(fb *wire.Buf) {
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		panic("core: self-produced message failed to decode: " + err.Error())
	}
	p.routeMsg(m)
}

// routeMsg resolves an arriving message's channel — and the channels of any
// cross-channel piggybacked control words — then hands it to the owning
// lane's ring and kicks the lane. It is the carrier's Handler under
// schedDriver and the tail of routeFrame otherwise; resolving here means
// the lane engine itself never takes the channel-table lock.
func (p *Proc) routeMsg(m *transport.Message) {
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
func (ln *lane) engine(d *goroutineDriver) {
	defer d.wg.Done()
	tr := ln.p.cfg.Tracer
	for {
		items := ln.rx.Drain()
		if len(items) == 0 {
			if tr != nil {
				tr.Set(ln.traceName, trace.Idle)
			}
			if !ln.rx.Sleep(d.stop) {
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

// sendSys is S, the send system thread of schedDriver: each wakeup
// services the lane's send scheduler until it is empty, calling the
// carrier in S's own context (see flushRunLocked). It parks at "send idle"
// and exits once the proc may shut down (idleExit).
func (ln *lane) sendSys(st *mts.Thread) {
	p := ln.p
	for {
		ln.mu.Lock()
		if ln.pending.empty() && len(ln.mustFlush) == 0 {
			ln.mu.Unlock()
			if ln.sd.idleExit(p, "send", ln.sd.r, "recv idle") {
				return
			}
			p.traceSys("send", trace.Idle)
			st.Park("send idle")
			continue
		}
		p.traceSys("send", trace.Comm)
		ln.service(st)
		ln.mu.Unlock()
		ln.runDrain()
	}
}

// recvSys is R, the receive system thread of schedDriver. It processes one
// arrival at a time, highest priority first, and drains that arrival's
// scheduler-domain work before the next, passing itself as the consuming
// thread so Config.RecvCharge lands on R in arrival order. It parks at
// "recv idle" and exits once the proc may shut down (idleExit).
func (ln *lane) recvSys(rt *mts.Thread) {
	p := ln.p
	for {
		ln.mu.Lock()
		if items := ln.rx.Drain(); len(items) > 0 {
			ln.queueRxLocked(items)
		}
		if ln.rxq.empty() {
			ln.mu.Unlock()
			if ln.sd.idleExit(p, "recv", ln.sd.s, "send idle") {
				return
			}
			p.traceSys("recv", trace.Idle)
			rt.Park("recv idle")
			continue
		}
		p.traceSys("recv", trace.Comm)
		ln.processLocked(ln.rxq.pop())
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.drain(rt)
	}
}

// ingestLocked is the shared body of engine and step: queue one drained
// ring batch by priority, process it, service the send scheduler the
// processing may have fed, and report whether a drain must be scheduled.
func (ln *lane) ingestLocked(items []rxItem) (post bool) {
	ln.queueRxLocked(items)
	for !ln.rxq.empty() {
		ln.processLocked(ln.rxq.pop())
	}
	ln.serviceLocked()
	return ln.queueDrainLocked()
}

// queueRxLocked files a drained ring batch into the receive priority
// queue: control above all data, data under its channel's priority.
func (ln *lane) queueRxLocked(items []rxItem) {
	ln.p.statRingDrain.Add(int64(len(items)))
	for i, it := range items {
		level := ctrlLevel
		if it.m.Tag >= 0 && it.c != nil {
			level = it.c.priority
		}
		ln.rxq.push(level, it)
		items[i] = rxItem{}
	}
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

// processLocked is one arrival's receive processing — Figure 8's R:
// control to the disciplines, data through error/flow control — deferring
// scheduler-domain work (waiter dispatch, barrier and signaling state,
// exceptions) to the out-queues.
func (ln *lane) processLocked(it rxItem) {
	m, c := it.m, it.c
	if m.Tag < 0 {
		switch m.Tag {
		case tagFlowAck, tagGBNAck:
			if c == nil {
				// Control for a channel nobody has open: almost always an
				// ack or credit racing the channel's finalize (the signaled
				// close removed it from the table). Cumulative control is
				// supersede-safe, so drop it and count. A closed channel
				// that is still in the table keeps consuming control: error
				// control needs late acks to drain its in-flight window.
				ln.p.statLateCtrl.Add(1)
				m.Release()
				return
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
		return
	}
	if c == nil {
		ln.errs = append(ln.errs, fmt.Errorf("data on unopened channel %d from proc %d", m.Channel, m.From))
		m.Release()
		return
	}
	// Piggybacked control applies before anything else: it is the peer's
	// receiver-role state and stays valid whether this data copy turns out
	// fresh, duplicate, or addressed to a closed channel. A coalesced word
	// belongs to the sibling channel stamped on it.
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
		// This end tore the channel down; the peer may still be
		// transmitting. Drop, and let its error control give up as against
		// a dead process.
		ln.errs = append(ln.errs, fmt.Errorf("data on closed channel %d from proc %d", m.Channel, m.From))
		m.Release()
		return
	}
	// Error control may suppress duplicates / out-of-order arrivals.
	if !c.errc.onData(m) {
		return
	}
	c.received.Add(1)
	c.bytesReceived.Add(int64(len(m.Data)))
	// Flow control acknowledges the delivery (credit return).
	c.flow.onDelivered(m)
	ln.deliver = append(ln.deliver, m)
}

// requeueRxLocked re-queues in-order flushes from a buffering discipline
// (selective repeat) ahead of anything already waiting at the channel's
// level, so release order equals sequence order.
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

// serviceLocked is called by whatever fed the send scheduler — a sending
// thread, the engine, a timer — once it is done queuing. Under schedDriver
// it wakes S, which services the lane in its own context (the paper's
// send system thread). Under the other drivers it services the lane
// inline, so an uncontended send completes with no context switch at all.
func (ln *lane) serviceLocked() {
	if sd := ln.sd; sd != nil {
		if !ln.pending.empty() || len(ln.mustFlush) > 0 {
			ln.p.wakeIfIdle(sd.s, "send idle")
		}
		return
	}
	ln.service(nil)
}

// service drains the lane's send scheduler (control first, then DRR across
// channels) through admission, piggyback attachment, cross-channel
// coalescing, and same-destination batching. Forced credit advertisements
// queued by the flow tier (mustFlush) are resolved at the end of the pass:
// a data frame serviced in the same pass carries them for free, anything
// still pending goes standalone. st is S under schedDriver (see
// flushRunLocked), nil otherwise.
func (ln *lane) service(st *mts.Thread) {
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
				run = ln.flushRunLocked(run, st)
			}
			run = append(run, req)
			if p.laneBS == nil {
				run = ln.flushRunLocked(run, st)
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
	ln.sendRun = ln.flushRunLocked(run, st)
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
			c.flushAt = now + ctrlFlushDelay
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

// maxSendBurst bounds one same-destination run handed to a carrier's
// batch path, so a saturating bulk stream cannot delay its own callers'
// wakeups (or a priority preemption point) indefinitely.
const maxSendBurst = 64

// flushRunLocked hands one same-destination run to the carrier — a single
// SendBatch call when it offers batching — and completes the requests:
// counters, deferred wakeups, freelist recycling. When st is S
// (schedDriver), the carrier may charge CPU by parking st, and a parked mts
// thread must not hold ln.mu (the next thread to need it would block the
// whole scheduler), so the lock is released around the carrier calls. That
// is safe because only S services the lane, which keeps per-channel FIFO.
// S then drains the completions right away: the callers of this run wake
// now, not after the rest of the pass.
func (ln *lane) flushRunLocked(run []*sendReq, st *mts.Thread) []*sendReq {
	if len(run) == 0 {
		return run
	}
	p := ln.p
	if p.cfg.Tracer != nil {
		for _, req := range run {
			p.traceChan(req.ch, trace.Comm)
		}
	}
	if st != nil {
		ln.mu.Unlock()
	}
	if p.laneBS != nil && len(run) > 1 {
		ms := ln.batchMsgs[:0]
		for _, req := range run {
			ms = append(ms, req.m)
		}
		p.laneBS.SendBatch(st, ms)
		for i := range ms {
			ms[i] = nil
		}
		ln.batchMsgs = ms[:0]
	} else {
		for _, req := range run {
			p.cfg.Endpoint.Send(st, req.m)
		}
	}
	if st != nil {
		ln.mu.Lock()
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
			// Inline sender still inside laneSend on this lane: it observes
			// the flag before parking, so no wakeup is needed.
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
	if st != nil {
		ln.mu.Unlock()
		ln.runDrain()
		ln.mu.Lock()
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

// failGated fails a batch of gated sends at channel teardown and reports
// them once through the exception handler — the shared tail of every
// discipline's shutdown. The callers unblock (Send returns no error, so the
// exception is how they learn of it). Caller holds the lane lock; wakeups
// and the exception run at the drain.
func (c *Channel) failGated(reqs []*sendReq, gate string) {
	if len(reqs) == 0 {
		return
	}
	ln := c.ln
	for _, req := range reqs {
		ln.failSendLocked(req)
	}
	if c.deadErr != nil {
		ln.errs = append(ln.errs, fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s: %w", c.id, c.peer, len(reqs), gate, c.deadErr))
		return
	}
	ln.errs = append(ln.errs, fmt.Errorf("core: channel %d to proc %d closed with %d sends still gated by %s", c.id, c.peer, len(reqs), gate))
}

// enqueue files a data request on the channel's lane scheduler at the
// channel's priority: a discipline releasing a deferred request, or a raw
// retransmission (which carries a full payload and so must not preempt a
// higher-priority stream as control would). The caller holds the lane lock;
// whoever completes the current lane entry services the queue. Admission
// never blocks the scheduler — a request a discipline cannot admit is
// deferred, not waited on — so nothing starves behind gated data.
func (c *Channel) enqueue(req *sendReq) {
	c.ln.pending.push(c.priority, req)
}

// ctrlLocked queues one pooled control frame (tag < 0) toward peer on the
// lane's control band, above every data level: control is what reopens
// stalled windows, so no amount of queued data may starve it. The payload
// is head (a marshalled SigMessage, or nil) followed by words as uint32s.
// It is the single builder of standalone control: credit and ack flushes,
// barrier, signaling and heartbeat frames. Flow- and error-control words
// are *cumulative* counters compared wrap-safely (wire.SeqNewer) at the
// receiver, so those frames survive lossy carriers: any later frame
// supersedes a dropped one. The message and its payload buffer recycle
// once the carrier has serialized them, so a steady stream of credits and
// acks allocates nothing. Caller holds ln.mu and services the lane after.
func (ln *lane) ctrlLocked(to ProcID, ch ChannelID, tag int, head []byte, words []uint32) {
	m := ln.getCtrlMsg()
	m.From = ln.p.cfg.ID
	m.To = to
	m.Channel = ch
	m.Tag = tag
	m.Data = append(m.Data[:0], head...)
	for _, w := range words {
		m.Data = wire.AppendUint32(m.Data, w)
	}
	req := ln.getReq()
	req.m = m
	req.ctrl = true
	ln.pending.push(ctrlLevel, req)
}

// sendCtrl sends one proc-level control frame toward peer — barrier
// arrivals and releases, signaling, heartbeats — on the lane of the peer's
// default channel: all of them travel on channel 0. Scheduler domain.
func (p *Proc) sendCtrl(to ProcID, tag int, head []byte, words ...uint32) {
	ln := p.DefaultChannel(to).lockLane()
	ln.ctrlLocked(to, 0, tag, head, words)
	ln.serviceLocked()
	ln.mu.Unlock()
	ln.runDrain()
}

// laneSend is the Thread.Send/Channel.Send body: build the message and
// request from the lane's freelists, enqueue, and service the lane. Under
// the goroutine and virtual drivers the service runs inline, and if the
// request flushed during it (the common, uncongested case) the thread
// never parks — the send completes in the caller's own time slice. If a
// discipline deferred it, or under schedDriver where S services the lane
// (the paper's NCS_send: wake the send system thread, block the caller),
// the thread parks and the eventual flush wakes it through the drain.
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
// pending wakeup, because a thread has at most one outstanding send. self
// is also the thread that consumes delivered data (Config.RecvCharge): R
// under schedDriver, which is the only producer of deliveries there.
//
// Reentrancy: processing a barrier message can send control (sendCtrl),
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
				p.dispatchData(self, m)
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

// mayShutdown is the shutdown predicate: user threads are done, no
// channel's error control is awaiting acknowledgement, and every lane has
// drained its queues. It takes the lane locks, so callers hold none.
func (p *Proc) mayShutdown() bool {
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

// shutdownCheck wakes the system threads if the proc may now shut down
// (bound once into Proc.shutdownFn so posting it allocates nothing).
func (p *Proc) shutdownCheck() {
	if p.mayShutdown() {
		p.laneDriver.wakeIdle(p)
	}
}

// startKeeper creates the goroutine and virtual drivers' keeper system
// thread: it parks until the process may terminate, runs stop
// (when set) to end the engines, and performs the final drain.
func (p *Proc) startKeeper(stop func()) *mts.Thread {
	return p.cfg.RT.Create(fmt.Sprintf("ncs%d-lanes", p.cfg.ID), mts.PrioSystem, func(st *mts.Thread) {
		for !p.mayShutdown() {
			st.Park("lanes idle")
		}
		if stop != nil {
			stop()
		}
		// Engines may have queued completions after their last scheduled
		// drain ran (or for drains the exiting Run loop would never execute).
		for _, ln := range p.lanes {
			ln.runDrain()
		}
	})
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

// LaneStats returns a scheduler snapshot with one entry per lane, never
// nil. Safe to call while traffic is flowing.
func (p *Proc) LaneStats() []LaneStats {
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
