package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the channel layer: the paper's claim (§3–§4) that NCS
// supplies *application-specific* communication services, made concrete. A
// Channel is an open (local proc → peer proc, class) pipe carrying its own
// flow-control discipline, error-control discipline, and priority — the
// per-application QoS selection of Figure 5, where a Video-on-Demand stream
// picks rate pacing while a parallel solver next to it picks windowed,
// reliable transfer. Each channel rides its own ATM virtual circuit in the
// cell-level carriers (the channel ID becomes the VPI), so a rate-class
// channel is policed by the network on its own VC.
//
// Thread.Send/Recv keep the paper's original single-protocol semantics by
// running on the default channel (ID 0), which every process pair has
// implicitly and which inherits the disciplines passed to core.New — the
// paper's NCS_init(flow, error) maps onto per-channel configuration with
// the process-wide arguments acting as the default channel's template.

// ChannelID identifies a channel between a process pair; 0 is the default
// channel.
type ChannelID = wire.ChannelID

// MaxChannelID bounds explicit channel IDs: the ATM carriers map the
// channel ID onto the 8-bit VPI so each channel rides a distinct VC.
const MaxChannelID = 255

// NumChannelPriorities is the number of channel priority levels. Higher
// values drain first; the default channel runs at priority 0 (lowest), and
// NCS-internal control traffic (credits, acks, retransmissions) drains
// above every data priority so windows can always open.
const NumChannelPriorities = 8

// numSendLevels is the internal queue level count: one level per channel
// priority plus the top control level.
const numSendLevels = NumChannelPriorities + 1

// ctrlLevel is the queue level for control traffic and raw
// retransmissions.
const ctrlLevel = NumChannelPriorities

// ChannelConfig selects a channel's QoS: the per-application choice the
// paper's NCS_init makes process-wide, here made per traffic class.
type ChannelConfig struct {
	// ID names the channel; both ends of a process pair must open the same
	// ID. 1..MaxChannelID (0 is the implicit default channel).
	ID ChannelID
	// Priority orders send/receive servicing across channels of this
	// process: 0..NumChannelPriorities-1, higher values drained first.
	Priority int
	// Flow is the channel's flow-control discipline (nil = NoFlowControl).
	// Instances hold per-channel state and must not be shared.
	Flow FlowControl
	// Error is the channel's error-control discipline (nil =
	// NoErrorControl). Instances hold per-channel state and must not be
	// shared.
	Error ErrorControl
	// Lane pins the channel to a specific send/recv lane: 1-based (wrapped
	// into the lane count), 0 selects the default placement — a hash of the
	// peer. Channels sharing a lane serialize against each other; channels
	// on different lanes run concurrently. Either way the placement holds
	// for the channel's lifetime.
	Lane int
	// Weight is the channel's deficit-round-robin service weight within its
	// lane: each round a backlogged channel earns Weight quanta of
	// transmission, so two channels sharing a lane split bandwidth
	// Weight-proportionally instead of the higher priority starving the
	// lower. 0 selects Priority+1, so by default higher priority also means
	// a larger share.
	Weight int
}

// chanKey indexes a Proc's channel table.
type chanKey struct {
	peer ProcID
	id   ChannelID
}

// Channel is one open (local proc → peer proc, class) pipe with its own
// flow control, error control, priority, and counters.
type Channel struct {
	p        *Proc
	peer     ProcID
	id       ChannelID
	priority int
	weight   int // DRR weight within the lane (Priority+1 by default)
	flow     FlowControl
	errc     ErrorControl
	closed   bool

	// Signaled-lifecycle state (see signal.go). state is atomic because
	// lane engines read it on the send path (sendUnavailable) without
	// entering the scheduler domain; everything else below is
	// scheduler-domain only. sigRef is the call reference the channel was
	// set up under (0 for statically opened channels, which signaling never
	// touches); sigInit marks the caller end, sigAdmitted an admission slot
	// to return at finalize, vcBound an installed per-call VC route.
	// relSent/relPeer/relAttempt/closeStarted/closedDone drive the close
	// handshake, and closeWaiters holds threads parked in CloseCall.
	state        atomic.Uint32
	everOpen     bool
	sigRef       uint32
	sigInit      bool
	sigAdmitted  bool
	vcBound      bool
	peerThread   int
	relSent      bool
	relPeer      bool
	relAttempt   int
	closeStarted bool
	closedDone   bool
	closeWaiters []*mts.Thread
	// deadErr, set by the failure sweep when the peer is declared dead,
	// replaces the generic ChannelClosedError on every subsequent send
	// failure so callers see the cause, not just the symptom. idleOver,
	// when non-zero, is the per-call SigIdleTimeout override negotiated at
	// setup (CallConfig.IdleTimeout; -1 disables the idle teardown).
	deadErr  *PeerDeadError
	idleOver time.Duration

	// ln is the lane the channel runs on. It is set before the channel is
	// published to the proc's table and never changes. All mutable channel
	// state below — discipline state, piggyback words, the closed flag — is
	// guarded by ln.mu.
	ln *lane

	// Pending reverse-direction control: the receiver role's credit
	// advertisement and error-control acks wait here for a data frame
	// toward the peer to piggyback on (attachPiggy or a same-lane
	// cross-channel ride) or for the lane's flush wheel, whichever comes
	// first. pendCredit is cumulative (a newer value supersedes); pendAcks
	// holds at most one word under go-back-N (cumulative) and a short
	// burst under selective repeat.
	pendCredit   uint32
	pendCreditOn bool
	pendAcks     []uint32

	// Flush-wheel state (owning lane's lock):
	// flushOn marks an entry in the wheel, flushAt its deadline, and
	// flushDeferred that the wheel already granted one extra window waiting
	// for an imminent same-peer data ride (bounded: the second expiry
	// always flushes). inPend marks membership in the lane's
	// pending-control index; mustFlushOn marks a forced advertisement
	// queued for the end of the current service pass.
	flushOn       bool
	flushAt       time.Duration
	flushDeferred bool
	inPend        bool
	mustFlushOn   bool

	// DRR state (owning lane's lock): sq is the channel's FIFO of queued
	// send requests, deficit its byte deficit, inSched its membership in
	// the lane scheduler's active ring.
	sq      list.FIFO[*sendReq]
	deficit int64
	inSched bool

	// lane names the channel's trace timeline (empty without a Tracer).
	lane string

	// Counters are atomic so Stats() can be read while lane engines are
	// still updating them.
	sent, received           atomic.Int64
	bytesSent, bytesReceived atomic.Int64
	ctrlPiggy                atomic.Int64 // control words that rode data frames
	ctrlStandalone           atomic.Int64 // standalone control frames sent
	ctrlCoalesced            atomic.Int64 // words that rode another channel's frame
}

// ChannelStats is a channel's traffic snapshot.
type ChannelStats struct {
	// Sent counts data messages transmitted (first transmissions only;
	// retransmissions are reported by the error-control discipline).
	Sent int64
	// Received counts data messages delivered by the peer on this channel.
	Received int64
	// BytesSent and BytesReceived total the payload bytes of the above.
	BytesSent, BytesReceived int64
	// CtrlPiggybacked counts control words (credit advertisements, acks)
	// this end attached to reverse-direction data frames;
	// CtrlStandalone counts standalone control frames it sent instead
	// (threshold advertisements, flush-timer fallbacks, window syncs).
	// Their ratio is the piggyback protocol's effectiveness.
	CtrlPiggybacked, CtrlStandalone int64
	// CtrlCoalesced counts the subset of CtrlPiggybacked that rode a
	// *different* channel's data frame toward the same peer (lane-aware
	// cross-channel coalescing).
	CtrlCoalesced int64
	// Weight is the channel's DRR service weight and Deficit its current
	// byte deficit in the lane scheduler.
	Weight  int
	Deficit int64
	// Lane is the index of the lane serving the channel.
	Lane int
	// Flow and Error name the channel's disciplines.
	Flow, Error string
}

// Open creates a channel to peer with its own QoS: per-channel flow
// control, error control, and priority. Both ends must open the same ID
// (with compatible disciplines) before traffic flows on it. Call before
// Start, or from a thread of this process.
func (p *Proc) Open(peer ProcID, cfg ChannelConfig) *Channel {
	if cfg.ID == 0 || cfg.ID > MaxChannelID {
		panic(fmt.Sprintf("core: channel ID must be 1..%d (0 is the default channel)", MaxChannelID))
	}
	if cfg.Priority < 0 || cfg.Priority >= NumChannelPriorities {
		panic(fmt.Sprintf("core: channel priority must be 0..%d", NumChannelPriorities-1))
	}
	if cfg.Weight < 0 {
		panic("core: channel weight must be >= 0 (0 selects Priority+1)")
	}
	key := chanKey{peer: peer, id: cfg.ID}
	fc := cfg.Flow
	if fc == nil {
		fc = NoFlowControl{}
	}
	ec := cfg.Error
	if ec == nil {
		ec = NoErrorControl{}
	}
	return p.addChannel(key, cfg.Priority, cfg.Lane, cfg.Weight, fc, ec)
}

// DefaultChannel returns the implicit channel 0 toward peer, creating it on
// first use from the process-wide Config.Flow/Config.Error templates.
func (p *Proc) DefaultChannel(peer ProcID) *Channel {
	p.chanMu.RLock()
	c, ok := p.channels[chanKey{peer: peer}]
	p.chanMu.RUnlock()
	if ok {
		return c
	}
	fc := p.cfg.Flow
	if fc == nil {
		fc = NoFlowControl{}
	}
	ec := p.cfg.Error
	if ec == nil {
		ec = NoErrorControl{}
	}
	return p.addChannel(chanKey{peer: peer}, 0, 0, 0, fc.fork(), ec.fork())
}

// addChannel builds a channel and publishes it. The channel is fully
// initialized — lane placed, disciplines init'd — *before* it enters the
// table: a foreign goroutine (routeFrame) may resolve it the instant it is
// visible. Two goroutines may race to create the same default channel; the
// loser's channel is discarded and the winner's returned. Explicit duplicate Opens still panic.
func (p *Proc) addChannel(key chanKey, prio, laneHint, weight int, fc FlowControl, ec ErrorControl) *Channel {
	if weight == 0 {
		weight = prio + 1
	}
	c := &Channel{p: p, peer: key.peer, id: key.id, priority: prio, weight: weight, flow: fc, errc: ec}
	c.ln = p.lanes[p.laneIndex(key.peer, laneHint)]
	c.ln.mu.Lock()
	c.ln.chans = append(c.ln.chans, c)
	c.ln.mu.Unlock()
	if p.cfg.Tracer != nil {
		c.lane = fmt.Sprintf("%s/ch%d>%d", p.cfg.TraceName, key.id, key.peer)
	}
	fc.init(c)
	ec.init(c)
	p.chanMu.Lock()
	if exist, dup := p.channels[key]; dup {
		p.chanMu.Unlock()
		if key.id == 0 {
			return exist
		}
		panic(fmt.Sprintf("core(proc %d): channel %d to proc %d already open", p.cfg.ID, key.id, key.peer))
	}
	p.channels[key] = c
	p.chanMu.Unlock()
	if p.closing.Load() {
		// Opened after the user threads finished (unusual, but legal from
		// an exception handler): give the disciplines their shutdown signal
		// immediately so the process can still terminate.
		ln := c.lockLane()
		fc.shutdown()
		ec.shutdown()
		ln.serviceLocked()
		post := ln.queueDrainLocked()
		ln.mu.Unlock()
		if post {
			p.postScheduler(ln.drainFn)
		}
	}
	return c
}

// lookupChannel returns the channel a message belongs to. The default
// channel (id 0) is created on first reference — any peer may talk to us
// unannounced on it — while a nonzero channel must have been opened
// explicitly: ok is false for one nobody opened.
func (p *Proc) lookupChannel(peer ProcID, id ChannelID) (*Channel, bool) {
	p.chanMu.RLock()
	c, ok := p.channels[chanKey{peer: peer, id: id}]
	p.chanMu.RUnlock()
	if ok {
		return c, true
	}
	if id == 0 {
		return p.DefaultChannel(peer), true
	}
	return nil, false
}

// Close tears the channel down from this end: the disciplines shut down —
// the window-sync and pacing timers stop, and sends still gated inside a
// discipline *fail* (their callers unblock and the proc's exception
// handler reports how many were abandoned) instead of hanging forever.
// Further Sends on the channel panic. The channel stays in the proc's
// table so late control traffic (credits, acks) is still consumed and
// error control can finish draining its in-flight window — data already
// admitted still flushes to the wire. Arriving data is dropped through the
// exception handler, like data on a channel that was never opened. Call
// from a thread of this process (or any scheduler-domain context);
// idempotent.
//
// Close is one-sided: there is no teardown signaling to the peer, so a
// peer still transmitting into a closed channel sees its error-control
// tier retry and eventually give up, exactly as against a dead process.
// Channels opened through the signaling band (Proc.OpenCall) should use
// CloseCall instead, which drains both ends and releases the VC.
func (c *Channel) Close() {
	ln := c.lockLane()
	if c.closed {
		ln.mu.Unlock()
		return
	}
	// Flush pending piggyback control first: the peer's sender role may be
	// stalled on exactly the credit or ack sitting here, and a closed
	// channel produces no more data frames to carry it.
	c.flushCtrl()
	c.closed = true
	c.state.Store(chanClosed)
	c.flow.shutdown()
	c.errc.shutdown()
	ln.serviceLocked()
	ln.mu.Unlock()
	ln.runDrain()
	// Error control may have been holding the only reference that kept the
	// system threads alive; re-check now that deferred work is failed.
	c.p.checkShutdownWake()
}

// Closed reports whether Close has been called on this end.
func (c *Channel) Closed() bool { return c.closed }

// sendUnavailable reports whether new sends must fail: the channel was
// closed locally, or the signaled close handshake has begun (CLOSING keeps
// the receiver role live so the peer can drain, but admits no new sends).
// Safe from any goroutine — lane engines call it on the send path.
func (c *Channel) sendUnavailable() bool {
	return c.closed || c.state.Load() >= chanClosing
}

// sendFailErr is the error a failed send raises: the typed *PeerDeadError
// when the failure sweep tore the channel down, the generic closed-channel
// error otherwise. Scheduler or lane domain (deadErr is written under the
// lane lock by the sweep, read on the same paths that observe the state
// bump that made sendUnavailable true).
func (c *Channel) sendFailErr() error {
	if c.deadErr != nil {
		return c.deadErr
	}
	return &ChannelClosedError{Local: c.p.cfg.ID, Peer: c.peer, ID: c.id}
}

// lockLane acquires the channel's lane lock, returning the locked lane.
func (c *Channel) lockLane() *lane {
	c.ln.mu.Lock()
	return c.ln
}

// laneLock / laneUnlock guard lane-domain discipline state for the public
// introspection accessors (WindowFlow.Outstanding, GoBackN.Retransmissions,
// ...): that state mutates under the lane lock — in the engine goroutines,
// or on S and R — so a reader outside the lane must take it. Both are
// no-ops on a nil receiver (discipline not yet bound).
func (c *Channel) laneLock() {
	if c != nil {
		c.ln.mu.Lock()
	}
}

func (c *Channel) laneUnlock() {
	if c != nil {
		c.ln.mu.Unlock()
	}
}

// ID returns the channel identifier (0 for the default channel).
func (c *Channel) ID() ChannelID { return c.id }

// Peer returns the remote process the channel connects to.
func (c *Channel) Peer() ProcID { return c.peer }

// Proc returns the owning process (the local end). Accept hooks use it to
// create serving threads for incoming signaled calls.
func (c *Channel) Proc() *Proc { return c.p }

// PeerThread returns the calling-party thread index carried in the SETUP:
// on the callee end of a signaled call, the index of the thread that
// invoked OpenCall, so a serving thread knows where to address its first
// message before the peers have exchanged anything. Zero for statically
// opened channels and on the caller end.
func (c *Channel) PeerThread() int { return c.peerThread }

// Priority returns the channel's drain priority.
func (c *Channel) Priority() int { return c.priority }

// Flow returns the channel's flow-control discipline (for stats and tests).
func (c *Channel) Flow() FlowControl { return c.flow }

// Error returns the channel's error-control discipline.
func (c *Channel) Error() ErrorControl { return c.errc }

// Stats returns the channel's traffic counters. Safe to call while traffic
// is flowing (the counters are atomic; the scheduler fields take the lane
// lock briefly); the snapshot is per-counter consistent, not cross-counter.
func (c *Channel) Stats() ChannelStats {
	st := ChannelStats{
		Sent: c.sent.Load(), Received: c.received.Load(),
		BytesSent: c.bytesSent.Load(), BytesReceived: c.bytesReceived.Load(),
		CtrlPiggybacked: c.ctrlPiggy.Load(), CtrlStandalone: c.ctrlStandalone.Load(),
		CtrlCoalesced: c.ctrlCoalesced.Load(),
		Weight:        c.weight, Lane: c.ln.idx,
		Flow: c.flow.Name(), Error: c.errc.Name(),
	}
	ln := c.lockLane()
	st.Deficit = c.deficit
	ln.mu.Unlock()
	return st
}

// ---------------------------------------------------------------------------
// Piggybacked control

// ctrlFlushDelay is the piggyback window: how long queued
// reverse-direction control (cumulative credit advertisements, acks) waits
// for a data frame toward the peer before a standalone control frame
// flushes it. It is deliberately far below every discipline timescale
// (retransmission timeouts, window sync), so delaying control this long
// costs latency but never correctness.
const ctrlFlushDelay = time.Millisecond

// queueCredit files the flow tier's cumulative credit advertisement for
// piggybacking on the next data frame toward the peer. The value is
// cumulative, so a newer call simply supersedes a queued one. The flush
// timer bounds how long it may wait when no reverse data flows.
func (c *Channel) queueCredit(v uint32) {
	c.pendCredit = v
	c.pendCreditOn = true
	c.armFlush()
}

// queueAck files an error-control acknowledgement. Cumulative acks
// (go-back-N) supersede the queued word; selective acks (selective repeat)
// append, and the flush path batches them into one frame.
func (c *Channel) queueAck(v uint32, cumulative bool) {
	if cumulative && len(c.pendAcks) > 0 {
		c.pendAcks[len(c.pendAcks)-1] = v
	} else {
		c.pendAcks = append(c.pendAcks, v)
	}
	c.armFlush()
}

// armFlush schedules the standalone fallback for queued control by filing
// the channel on its lane's flush wheel — one timer per lane serves every
// channel with pending control, so 256 idle channels cost at most one armed
// timer each wheel, not 256.
func (c *Channel) armFlush() {
	ln := c.ln
	ln.pendAddLocked(c)
	if c.flushOn || c.closed {
		return
	}
	c.flushOn = true
	c.flushAt = time.Duration(c.p.cfg.RT.Now()) + ctrlFlushDelay
	ln.flushQ.Push(c)
	ln.armWheelLocked()
}

// flushCtrl queues whatever control is still pending as standalone frames:
// one credit advertisement and one (possibly multi-word) ack frame. No-op
// when a data frame already carried everything. The caller holds the lane
// lock and is responsible for servicing the lane afterwards (the frames
// are queued, not yet transmitted).
func (c *Channel) flushCtrl() {
	ln := c.ln
	if c.pendCreditOn {
		c.pendCreditOn = false
		c.ctrlStandalone.Add(1)
		ln.ctrlStandaloneL++
		ln.ctrlLocked(c.peer, c.id, tagFlowAck, nil, []uint32{c.pendCredit})
		c.flow.creditSent(c.pendCredit)
	}
	if len(c.pendAcks) > 0 {
		c.ctrlStandalone.Add(1)
		ln.ctrlStandaloneL++
		ln.ctrlLocked(c.peer, c.id, tagGBNAck, nil, c.pendAcks)
		c.pendAcks = c.pendAcks[:0]
	}
	ln.pendDropLocked(c)
}

// wrapTimer adapts a discipline timer callback to the channel's lane: take
// the lane lock, run the callback, service whatever it queued
// (retransmissions, credit syncs), then drain the scheduler-domain
// completions. Timer callbacks fire via Config.After, which is always a
// scheduler-domain context, so the drain is legal here.
func (c *Channel) wrapTimer(fn func()) func() {
	ln := c.ln
	return func() {
		ln.mu.Lock()
		fn()
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.runDrain()
	}
}

// raise reports a channel-context exception, deferred through the lane
// drain: callers hold the lane lock, and exception handlers are user code
// that must not run under it.
func (c *Channel) raise(err error) {
	c.ln.errs = append(c.ln.errs, err)
}

// attachPiggy moves pending control onto a departing data frame: the
// credit word and the oldest queued ack ride for free. Runs in the lane's
// send service immediately before the frame is handed to the carrier.
// Slots a previous transmission already occupied are skipped (a go-back-N
// retransmission re-sends the exact bytes it carried the first time);
// cross-channel coalescing may then fill the free slot from a sibling
// channel, so each attached word is stamped with its owning channel.
func (c *Channel) attachPiggy(m *transport.Message) {
	ln := c.ln
	if c.pendCreditOn && !m.HasCredit {
		m.Credit, m.HasCredit = c.pendCredit, true
		m.CreditChan = c.id
		c.pendCreditOn = false
		c.ctrlPiggy.Add(1)
		ln.ctrlPiggyL++
		c.flow.creditSent(c.pendCredit)
	}
	if n := len(c.pendAcks); n > 0 && !m.HasAck {
		m.Ack, m.HasAck = c.pendAcks[0], true
		m.AckChan = c.id
		copy(c.pendAcks, c.pendAcks[1:])
		c.pendAcks = c.pendAcks[:n-1]
		c.ctrlPiggy.Add(1)
		ln.ctrlPiggyL++
	}
	if !c.pendCreditOn && len(c.pendAcks) == 0 {
		ln.pendDropLocked(c)
	}
}

// Send transmits data to the channel's peer, addressed to toThread, from
// the calling thread t: NCS_send on an explicit channel. Like Thread.Send
// it parks only the calling thread.
func (c *Channel) Send(t *Thread, toThread int, data []byte) {
	c.SendTagged(t, 0, toThread, data)
}

// SendTagged is Send with a user message tag (>= 0).
func (c *Channel) SendTagged(t *Thread, tag, toThread int, data []byte) {
	if tag < 0 {
		panic("core: negative tags are reserved")
	}
	if t.proc != c.p {
		panic("core: thread sending on another process's channel")
	}
	c.laneSend(t, tag, toThread, data)
}

// Recv receives the next message the peer sent on this channel to the
// calling thread, from fromThread (or Any). Only the calling thread
// blocks.
func (c *Channel) Recv(t *Thread, fromThread int) ([]byte, Addr) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	data, addr, _ := t.recvOn(c.id, Any, fromThread, c.peer)
	return data, addr
}

// RecvInto is Recv delivering into the caller's buffer; see
// Thread.RecvInto for the contract (and the allocation-free property).
func (c *Channel) RecvInto(t *Thread, buf []byte, fromThread int) (int, Addr) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	return t.recvIntoOn(buf, c.id, Any, fromThread, c.peer)
}

// TryRecv is the non-blocking variant of Recv.
func (c *Channel) TryRecv(t *Thread, fromThread int) (data []byte, from Addr, ok bool) {
	if t.proc != c.p {
		panic("core: thread receiving on another process's channel")
	}
	return t.tryRecvOn(c.id, fromThread, c.peer)
}

// ---------------------------------------------------------------------------
// Priority queues

// prioQueue fans one logical queue into per-priority head-indexed FIFOs:
// push files an item under its level, pop drains the highest occupied
// level first. It is a lane's receive queue: arrivals on higher-priority
// channels are processed ahead of bulk traffic, control above them all. A
// bitmask tracks which levels are occupied, so the hot-path empty/pop pair
// is O(1) (bits.Len16 finds the highest set bit) instead of scanning all
// nine levels on every iteration.
type prioQueue[T any] struct {
	lvl  [numSendLevels]list.FIFO[T]
	mask uint16 // bit i set ⇔ lvl[i] non-empty
}

func (q *prioQueue[T]) push(level int, v T) {
	q.lvl[level].Push(v)
	q.mask |= 1 << level
}

func (q *prioQueue[T]) empty() bool { return q.mask == 0 }

func (q *prioQueue[T]) pop() T {
	if q.mask == 0 {
		panic("core: pop from empty priority queue")
	}
	i := bits.Len16(q.mask) - 1
	v := q.lvl[i].Pop()
	if q.lvl[i].Size() == 0 {
		q.mask &^= 1 << i
	}
	return v
}

func (q *prioQueue[T]) prependLevel(level int, vs []T) {
	q.lvl[level].Prepend(vs)
	if len(vs) > 0 {
		q.mask |= 1 << level
	}
}
