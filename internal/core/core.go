// Package core is NCS, the NYNET Communication System — the paper's primary
// contribution (§3, §4). It glues the two subsystems together:
//
//   - NCS_MTS (internal/mts): user-level threads, 16-level priority
//     round-robin scheduling, block/unblock, synchronization.
//   - NCS_MPS (this package + a transport): thread-addressed message
//     passing. NCS_send and NCS_recv wake the *send* and *receive system
//     threads* and block only the calling thread, never the process, so
//     other threads compute while a transfer is in flight.
//
// A Proc is one NCS process (one per workstation). Its system threads run
// at the highest priority; user compute threads are created with TCreate
// and started with Start, mirroring the paper's generic application model
// (Figure 10):
//
//	NCS_init(flow, error)   ->  core.New(Config{Flow: ..., Error: ...})
//	NCS_t_create(fn, a, p)  ->  proc.TCreate(name, prio, fn)
//	NCS_start()             ->  proc.Start() / sim engine Run
//	NCS_send / NCS_recv     ->  Thread.Send / Thread.Recv
//	NCS_bcast               ->  Thread.Bcast
//	NCS_block / NCS_unblock ->  Thread.Block / Thread.Unblock
//
// NCS_init's flow/error arguments configure the *default channel*: every
// process pair has an implicit channel 0 whose disciplines fork from the
// Config templates, which is what Thread.Send/Recv ride. The paper's
// application-specific QoS (§3, Figure 5) goes further — each traffic
// class picks its own disciplines — and that is Proc.Open: an explicit
// Channel with its own FlowControl, ErrorControl, and priority, mapped to
// its own ATM virtual circuit in the cell-level carriers (see channel.go).
//
// The transport underneath decides the tier: the simulated or real TCP path
// gives the Normal Speed Mode (Approach 1, what the paper benchmarks); the
// ATM-API path (internal/nic) gives the High Speed Mode (Approach 2).
//
// # Threading model
//
// A process's send and receive work runs in *lanes* (lane.go), one engine
// implementation executed by one of three drivers:
//
//   - One lane (the GOMAXPROCS=1 default, every sim harness with
//     RecvCharge or ArrivalPollDelay, every carrier without a raw-frame
//     path): the paper's exact model. One send and one receive system
//     thread, S and R, at top priority in the mts scheduler.
//   - Several lanes on a transport.FrameCarrier in real mode: one engine
//     goroutine per lane, with senders servicing their lane inline.
//   - Several lanes under Config.VirtualTime: the same engine body as
//     event callbacks on a discrete-event engine's clock — no lane
//     goroutines at all. Events and the threads they dispatch execute
//     strictly one at a time in the engine's goroutine, ordered by the
//     event queue's (time, seq) heap, so a run is deterministic: the same
//     workload and seed reproduce the timeline byte for byte. Code in this
//     package must therefore never let ordering depend on Go map iteration
//     or goroutine scheduling (see Proc.channelsOrdered).
//
// Every lane is an adaptive scheduler:
//
//   - Deficit round robin across the lane's data channels (drr.go):
//     ChannelConfig.Weight (default priority+1) × 2 KB of service per
//     round, control strictly above all data, higher priority still
//     preempting within the round — bounding starvation instead of
//     permitting it.
//   - Lane-aware control coalescing (lane.go): an expiring piggyback
//     window first tries to ride a sibling channel's queued or imminent
//     data frame toward the same peer, and flush timers share one
//     per-lane wheel instead of one timer per channel.
//   - Static placement: a channel runs on one lane for life, chosen when
//     it opens by ChannelConfig.Lane or else by a hash of the peer
//     (Config.LaneHash overrides the hash), as the paper's NCS process
//     keeps a channel on its one send/receive thread pair.
//
// Proc.LaneStats reports the per-lane view: piggyback share, coalesced
// control words, and DRR rounds.
//
// NewVirtualMesh builds the standard virtual-time arrangement — N procs on
// one engine over a frame-granular fabric — and TimelineHash fingerprints
// a run for determinism assertions. The seam between the drivers is
// engineDriver in lane.go.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/work"
)

// ProcID aliases the transport process identifier.
type ProcID = transport.ProcID

// Any is the wildcard (-1) in receive matching, as in the paper's
// NCS_recv(-1, -1, ...).
const Any = transport.Any

// Reserved control tags (negative; user tags are >= 0).
const (
	tagFlowAck    = -2
	tagBarrier    = -3
	tagBarrierRel = -4
	tagGBNAck     = -5
)

// Addr addresses one NCS thread: the paper's (thread, process) pair.
type Addr struct {
	Proc   ProcID
	Thread int
}

// Config assembles a Proc.
type Config struct {
	// ID is the process identity; must match Endpoint.Proc().
	ID ProcID
	// RT is the process's thread runtime (one per workstation).
	RT *mts.Runtime
	// Endpoint carries messages (SimTCP, SimATM, Mem, UDP).
	Endpoint transport.Endpoint
	// Compute executes application work (sim: charge cost; real: run fn).
	Compute work.Compute
	// RecvCharge, if set, is the host CPU cost of moving an n-byte message
	// from the protocol stack to the application, charged at consume time.
	RecvCharge func(t *mts.Thread, n int)
	// Flow selects the flow-control discipline (nil = NoFlowControl, the
	// paper's Approach-1 default, which relies on p4/TCP underneath).
	Flow FlowControl
	// Error selects the error-control discipline (nil = NoErrorControl).
	Error ErrorControl
	// After schedules fn after a delay in the scheduler domain; retransmit
	// and rate timers use it. Defaults to RT.After (real time). Sim
	// harnesses must pass the engine's virtual timer.
	After func(d time.Duration, fn func())
	// VirtualTime declares that the proc executes on a discrete-event loop:
	// After is the simulation engine's virtual timer and every internal
	// engine (lane steps, drain hand-offs) must ride it as clock events
	// instead of goroutines, tickers, or PostAsync. This is what lets
	// several lanes run under a sim harness — N procs on one shared clock
	// with a deterministic timeline — instead of one lane on the S and R
	// system threads. Requires After; NewVirtualMesh sets both.
	VirtualTime bool
	// ArrivalPollDelay models Approach 1's receive discovery latency: the
	// NCS receive system thread polls p4 underneath (§4.2 — NCS_recv is
	// built on p4_messages_available/p4_recv), so a message that arrives
	// while the workstation is otherwise idle is noticed only at the next
	// poll. When compute threads keep the CPU busy the poll coincides
	// with the next context switch and costs nothing — that asymmetry is
	// precisely how multithreading hides latency. The hook returns the
	// extra delay to apply to the receive thread's wakeup for an arrival;
	// nil means zero (Approach 2's trap-driven receive path).
	ArrivalPollDelay func() time.Duration
	// Tracer, if set, records per-thread timelines named
	// "<TraceName>/t<idx>".
	Tracer    *trace.Recorder
	TraceName string
	// Lanes is the number of send/recv lanes (see lane.go), 0 defaulting
	// to min(GOMAXPROCS, 4). More than one lane needs a
	// transport.FrameCarrier endpoint and either real mode (no RecvCharge,
	// ArrivalPollDelay, or custom After hook) or a VirtualTime
	// discrete-event loop; otherwise — and always at a resolved count of
	// 1, the case on a single-core GOMAXPROCS — the proc runs one lane on
	// the paper's send and receive system threads, where the sim
	// harnesses' RecvCharge and poll hooks land on scheduler threads by
	// construction.
	Lanes int
	// LaneHash overrides the default peer→lane placement hash: a channel
	// with no explicit ChannelConfig.Lane lands on lane LaneHash(peer) mod
	// lane count, and stays there. Benchmarks use it to reproduce skewed
	// placements.
	LaneHash func(ProcID) int
	// Admission judges incoming signaled call setups (Proc.OpenCall at the
	// peer): nil admits everything. Rejections travel back to the caller
	// as typed causes; see AdmissionPolicy in signal.go.
	Admission AdmissionPolicy
	// SigIdleTimeout, when positive, arms an idle reaper on every signaled
	// channel: a channel that moves no traffic for a full period is closed
	// from this end — the survival path against a peer that crashed after
	// call setup. 0 disables (the default).
	SigIdleTimeout time.Duration
	// OnAccept, when set, runs in the scheduler domain for every incoming
	// signaled call this process admits, handing the application its end of
	// the channel (typically to TCreate a serving thread). The channel is
	// OPEN and the CONNECT already on its way when the hook runs.
	OnAccept func(*Channel)
	// AcceptQueue, when positive, bounds a listener-side queue of incoming
	// SETUPs served one per scheduler pass — backpressure instead of the
	// instant synchronous accept when the app is slow in OnAccept; a SETUP
	// arriving into a full queue is rejected with CauseBusy. 0 keeps the
	// synchronous accept path (the default).
	AcceptQueue int
	// Heartbeat configures the per-peer failure detector (failure.go):
	// every Interval the proc beats each peer it has channels to over the
	// channel-0 signaling band and, after Misses consecutive silent
	// intervals, declares the peer dead — force-closing every channel to it
	// and failing blocked senders, receivers, and collectives with the
	// typed *PeerDeadError. Interval 0 disables detection (the default).
	// All timers ride Config.After, so detection is deterministic under a
	// VirtualTime mesh.
	Heartbeat Heartbeat
}

// sendReq is one queued transfer for a lane's send scheduler.
type sendReq struct {
	m *transport.Message
	// ch is the channel the message travels on; nil for control traffic.
	ch *Channel
	// caller is parked until the lane hands the transfer to the carrier;
	// nil for internally generated traffic (acks, retransmissions).
	caller *mts.Thread
	// raw skips flow/error processing: the message was already stamped
	// (a go-back-N retransmission must keep its original sequence).
	raw bool
	// ctrl marks a pooled control message that returns to the control
	// freelist once the endpoint has serialized it.
	ctrl bool
	// flowOK records that flow control already admitted this request (a
	// deferred request re-enqueued with its credit attached).
	flowOK bool
	// fan, when non-nil, marks one request of a fan-out send: the thread
	// parked once for the whole fan and wakes when every member request has
	// flushed (or failed), since the shared payload must stay stable until
	// the last copy is serialized.
	fan *Thread
	// done, when non-nil, is the inline-send completion flag
	// (Thread.sendDone): the sender is still inside laneSend holding the
	// lane lock, so completion just sets the flag instead of waking anyone.
	// Mutually exclusive with caller (see laneSend).
	done *bool
}

// recvWaiter is a thread parked in Recv.
type recvWaiter struct {
	t          *Thread
	ch         ChannelID
	fromThread int
	fromProc   ProcID
	tag        int
	// multi, when non-nil, overrides (fromThread, fromProc): the waiter
	// matches a message from *any* address in the set. Collectives and the
	// out-of-order Gather/Reduce paths use it so one slow peer cannot
	// head-of-line-block payloads that already arrived.
	multi []Addr
	got   *transport.Message
	// err, when set by the failure sweep (failDeadWaiters), marks a waiter
	// whose pattern can only match dead peers: the woken receiver re-raises
	// it instead of reading got.
	err error
}

// Proc is one NCS process.
type Proc struct {
	cfg Config

	// store holds delivered-but-unclaimed data messages.
	store   []*transport.Message
	waiters []*recvWaiter

	// waiterFree recycles receive waiters (scheduler domain only).
	waiterFree []*recvWaiter

	// flushTimers counts armed lane flush-wheel timers process-wide — the
	// per-lane-wheel invariant a test asserts.
	flushTimers atomic.Int64

	// channels holds every open channel, keyed by (peer, channel ID).
	// Default channels (ID 0) are created lazily from the Config
	// templates; explicit channels come from Open. chanMu guards the map
	// (foreign goroutines resolve channels in routeFrame); channel *state*
	// is guarded by the owning lane's mutex.
	chanMu   sync.RWMutex
	channels map[chanKey]*Channel

	threads  []*Thread
	userLive int
	closing  atomic.Bool
	started  bool

	// Send/recv engine (lane.go). laneDriver is the execution seam: the S
	// and R system threads, goroutine engines, or vclock event callbacks.
	// postAfter records that Config.After is a harness timer (a
	// discrete-event engine), where nothing drains Runtime.PostAsync.
	lanes      []*lane
	laneDriver engineDriver
	laneBS     transport.BatchSender
	shutdownFn func()
	postAfter  bool

	// bars holds root-collected barrier state machines keyed by group
	// membership hash (see barrier.go); groupSeq numbers Groups for their
	// trace lanes (see coll.go).
	bars     map[uint32]*barrierState
	groupSeq int

	onException func(error)

	// Signaled-call state (scheduler domain; see signal.go): sigCalls holds
	// outstanding outgoing setups by call reference, sigRefSeq allocates
	// references.
	sigCalls  map[uint32]*sigCall
	sigRefSeq uint32

	// Failure domain (scheduler domain; see failure.go): hbPeers is the
	// detector's per-peer beat state, hbMisses the resolved miss budget,
	// deadPeers the peers declared dead (cleared by a fresh OpenCall or an
	// incoming SETUP from the peer). acceptQ/acceptOn are the bounded
	// listener-side SETUP queue (Config.AcceptQueue).
	hbPeers   map[ProcID]*hbPeer
	hbMisses  int
	deadPeers map[ProcID]*PeerDeadError
	acceptQ   []pendingSetup
	acceptOn  bool

	// Stats. Atomic: the stats-reading side (tests, benchmarks) races lane
	// engines updating channel counters, and these proc-wide totals are
	// read the same way.
	sent, received atomic.Int64

	// Lifecycle balance counters (signal.go): paired ledgers that must
	// match at quiesce — the churn scenarios' zero-leak assertion — plus
	// the setup funnel. Atomic for the same reason as above.
	statOpened, statClosed               atomic.Int64
	statSetupsSent, statSetupsAccepted   atomic.Int64
	statSetupsRejected, statSetupRetries atomic.Int64
	statVCBound, statVCRel               atomic.Int64
	statTimersArmed, statTimersFired     atomic.Int64
	statRingPush, statRingDrain          atomic.Int64
	statLateCtrl                         atomic.Int64
}

// New builds an NCS process: the paper's NCS_init. Its system threads
// (send and receive, or the lane keeper) are created immediately at the
// highest priority.
func New(cfg Config) *Proc {
	if cfg.Endpoint.Proc() != cfg.ID {
		panic(fmt.Sprintf("core: id %d != endpoint proc %d", cfg.ID, cfg.Endpoint.Proc()))
	}
	if cfg.Compute == nil {
		cfg.Compute = work.Real()
	}
	customAfter := cfg.After != nil
	if cfg.VirtualTime && !customAfter {
		panic("core: VirtualTime requires Config.After (the engine's virtual timer)")
	}
	if cfg.After == nil {
		cfg.After = cfg.RT.After
	}
	p := &Proc{cfg: cfg, postAfter: customAfter}
	if cfg.VirtualTime {
		// Virtual-time runs assert exact timer balance at quiesce
		// (Proc.Leaks): wrap the injected timer so every arm and fire is
		// counted. Real mode skips the wrap — the closure costs
		// allocations the alloc-pinned hot paths cannot afford, and
		// wall-clock timers legitimately outlive a sampling instant.
		base := p.cfg.After
		p.cfg.After = func(d time.Duration, fn func()) {
			p.statTimersArmed.Add(1)
			base(d, func() {
				p.statTimersFired.Add(1)
				fn()
			})
		}
	}
	p.channels = make(map[chanKey]*Channel)
	p.onException = func(err error) {
		// Wrap rather than format: a recovering thread (chaos harnesses,
		// redial loops) can still errors.As the typed cause — e.g.
		// *PeerDeadError — out of the panic value.
		panic(fmt.Errorf("core(proc %d): unhandled exception: %w", cfg.ID, err))
	}

	// Several lanes engage only when they can be transparent: a
	// frame-capable carrier and none of the hooks that assume all protocol
	// work happens on scheduler threads (receive charging, arrival polls).
	// A custom After hook normally means a sim harness, unless the harness
	// declares VirtualTime — then the lanes themselves run as events on
	// that timer. Everything else runs one lane on the S and R threads.
	lanes := resolveLanes(cfg.Lanes)
	fc, frames := cfg.Endpoint.(transport.FrameCarrier)
	switch {
	case lanes > 1 && frames && cfg.RecvCharge == nil && cfg.ArrivalPollDelay == nil && cfg.VirtualTime:
		p.initLanes(lanes, &virtualDriver{after: p.cfg.After})
		fc.SetFrameHandler(p.routeFrame)
	case lanes > 1 && frames && cfg.RecvCharge == nil && cfg.ArrivalPollDelay == nil && !customAfter:
		p.initLanes(lanes, &goroutineDriver{})
		fc.SetFrameHandler(p.routeFrame)
	default:
		p.initLanes(1, &schedDriver{})
		cfg.Endpoint.SetHandler(p.routeMsg)
	}
	p.startHeartbeat()
	return p
}

// resolveLanes maps a Config lane count to an effective one: 0 defaults to
// min(GOMAXPROCS, 4), anything else clamps to at least 1.
func resolveLanes(n int) int {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 4 {
			n = 4
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ID returns the process identity.
func (p *Proc) ID() ProcID { return p.cfg.ID }

// RT returns the process runtime.
func (p *Proc) RT() *mts.Runtime { return p.cfg.RT }

// Sent returns the number of user messages sent.
func (p *Proc) Sent() int64 { return p.sent.Load() }

// Received returns the number of user messages consumed.
func (p *Proc) Received() int64 { return p.received.Load() }

// OnException installs the process's exception handler (paper §3.1,
// "Exception Handling"). The default panics.
func (p *Proc) OnException(fn func(error)) { p.onException = fn }

func (p *Proc) exception(err error) { p.onException(err) }

// Thread is one NCS user thread: the handle the application body receives.
type Thread struct {
	proc *Proc
	idx  int
	mt   *mts.Thread
	// blockPermit banks an Unblock that raced ahead of the Block it was
	// meant to release, so NCS_block/NCS_unblock pairs cannot lose a
	// wakeup regardless of scheduling order.
	blockPermit bool
	// fanLeft counts this thread's in-flight fan-out requests (coll.go's
	// fanSend); the thread parks until the lane retires the last one.
	fanLeft int
	// sendDone is the inline-send completion flag (laneSend): a
	// thread has at most one outstanding send, so one reusable field
	// avoids a per-send heap escape. Written only under the lane lock.
	sendDone bool
}

// Idx returns the thread's NCS index within its process (the paper's
// THREAD0/THREAD1 numbering).
func (t *Thread) Idx() int { return t.idx }

// Proc returns the owning process.
func (t *Thread) Proc() *Proc { return t.proc }

// MT returns the underlying scheduler thread.
func (t *Thread) MT() *mts.Thread { return t.mt }

// TCreate registers a user compute thread: the paper's NCS_t_create. It may
// be called before Start or from a running thread.
func (p *Proc) TCreate(name string, prio int, body func(*Thread)) *Thread {
	t := &Thread{proc: p, idx: len(p.threads)}
	p.threads = append(p.threads, t)
	p.userLive++
	t.mt = p.cfg.RT.Create(name, prio, func(mt *mts.Thread) {
		p.traceThread(t, trace.Compute)
		body(t)
		p.traceThread(t, trace.Idle)
		p.traceClose(t)
		p.userDone()
	})
	return t
}

// Threads returns the user threads in creation order.
func (p *Proc) Threads() []*Thread { return p.threads }

// Start runs the process's runtime until all user threads finish: the
// paper's NCS_start. Only for real-time transports — simulation harnesses
// drive all processes through the engine instead.
func (p *Proc) Start() {
	p.started = true
	p.cfg.RT.Run()
}

// userDone runs when a user thread body returns; the last one shuts the
// system threads down so the runtime (or simulation) can terminate.
func (p *Proc) userDone() {
	p.userLive--
	if p.userLive > 0 {
		return
	}
	p.closing.Store(true)
	for _, c := range p.channelsOrdered() {
		// Control still waiting for a piggyback ride must leave before the
		// system threads may exit: the peer's sender role may be blocked on
		// exactly this credit or ack, and the flush timer may never fire
		// once the runtime winds down.
		ln := c.lockLane()
		c.flushCtrl()
		c.flow.shutdown()
		c.errc.shutdown()
		ln.serviceLocked()
		ln.mu.Unlock()
		ln.runDrain()
	}
	// Wake the system threads only if they are parked at their idle
	// points; one parked mid-transfer (a charged CPU burst) notices
	// closing when it next returns to its idle check.
	p.laneDriver.wakeIdle(p)
}

// postScheduler defers fn into the scheduler domain from a context that may
// hold a lane lock. In real mode that is Runtime.PostAsync (runs between
// dispatches); under a sim harness's timer nothing ever drains the
// PostAsync queue — the sim engine only Dispatches — so fn becomes a
// zero-delay clock event instead.
func (p *Proc) postScheduler(fn func()) {
	if p.postAfter {
		p.cfg.After(0, fn)
		return
	}
	p.cfg.RT.PostAsync(fn)
}

// channelsOrdered snapshots the channel table in (peer, id) order. Shutdown
// walks channels through state-changing steps (flushCtrl, discipline
// shutdown) whose relative order decides when each channel's last frames hit
// the wire; iterating the map directly would make that order — and with it
// the virtual-time timeline — depend on Go's randomized map iteration.
func (p *Proc) channelsOrdered() []*Channel {
	p.chanMu.RLock()
	chans := make([]*Channel, 0, len(p.channels))
	for _, c := range p.channels {
		chans = append(chans, c)
	}
	p.chanMu.RUnlock()
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].peer != chans[j].peer {
			return chans[i].peer < chans[j].peer
		}
		return chans[i].id < chans[j].id
	})
	return chans
}

func (p *Proc) wakeIfIdle(t *mts.Thread, idleReason string) {
	if t.State() == mts.StateBlocked && t.BlockReason() == idleReason {
		p.cfg.RT.Unblock(t, false)
	}
}

// checkShutdownWake nudges the system threads toward exit once the last
// in-flight acknowledgement lands (or is abandoned) after the user threads
// have already finished. It may run under a lane lock (a discipline
// processing the last ack), and the shutdown predicate takes lane locks, so
// the predicate runs from the scheduler domain instead.
func (p *Proc) checkShutdownWake() {
	if p.closing.Load() {
		p.postScheduler(p.shutdownFn)
	}
}

func (p *Proc) traceThread(t *Thread, s trace.State) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Set(fmt.Sprintf("%s/t%d", p.cfg.TraceName, t.idx), s)
	}
}

func (p *Proc) traceClose(t *Thread) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Close(fmt.Sprintf("%s/t%d", p.cfg.TraceName, t.idx))
	}
}

func (p *Proc) traceSys(name string, s trace.State) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Set(p.cfg.TraceName+"/"+name, s)
	}
}

// ---------------------------------------------------------------------------
// Sending

// Send transmits data to (toProc, toThread): the paper's NCS_send. It
// queues the transfer on the lane and parks the calling thread until the
// transfer is handed to the network; meanwhile other threads of this
// process run — the overlap mechanism of Figure 4.
func (t *Thread) Send(toThread int, toProc ProcID, data []byte) {
	t.SendTagged(0, toThread, toProc, data)
}

// SendTagged is Send with a user message tag (>= 0); an extension beyond
// the paper's primitives for library completeness. It travels on the
// default channel toward toProc.
func (t *Thread) SendTagged(tag int, toThread int, toProc ProcID, data []byte) {
	if tag < 0 {
		panic("core: negative tags are reserved")
	}
	t.proc.DefaultChannel(toProc).laneSend(t, tag, toThread, data)
}

// fanDone retires one request of a fan-out send (coll.go's fanSend): the
// owning thread parks once for the whole fan and wakes when the last
// request has been handed to the carrier — or failed at teardown.
func (p *Proc) fanDone(t *Thread) {
	t.fanLeft--
	if t.fanLeft == 0 {
		p.cfg.RT.Unblock(t.mt, false)
	}
}

// traceChan records a channel-lane state change (no-op without a Tracer):
// each channel gets its own timeline next to the system threads', so a
// traced run shows which class was on the wire when.
func (p *Proc) traceChan(c *Channel, s trace.State) {
	if c == nil || p.cfg.Tracer == nil {
		return
	}
	p.cfg.Tracer.Set(c.lane, s)
}

func (p *Proc) traceSysClose(name string) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Close(p.cfg.TraceName + "/" + name)
	}
}

// ---------------------------------------------------------------------------
// Receiving

// Recv receives the next message addressed to this thread and matching
// (fromThread, fromProc), either of which may be Any: the paper's NCS_recv.
// Only the calling thread blocks. It returns the payload and the actual
// source address.
func (t *Thread) Recv(fromThread int, fromProc ProcID) ([]byte, Addr) {
	return t.RecvTagged(Any, fromThread, fromProc)
}

// RecvTagged is Recv constrained to a user tag (or Any).
func (t *Thread) RecvTagged(tag int, fromThread int, fromProc ProcID) ([]byte, Addr) {
	data, addr, _ := t.recvTagOut(tag, fromThread, fromProc)
	return data, addr
}

// RecvInto is Recv delivering into the caller's buffer — the shape of the
// paper's actual NCS_recv(thread, process, buffer) call. It blocks like
// Recv, copies the payload into buf (panicking if buf is too small — the
// caller declared its capacity, exactly as in the C API), and returns the
// payload length and source. Because the payload is copied out, the
// message's pooled frame recycles into the wire pool, so a steady-state
// RecvInto loop over a pooled carrier (Mem, real TCP, UDP/ATM) allocates
// nothing — the allocation-free receive the host-overhead argument wants.
func (t *Thread) RecvInto(buf []byte, fromThread int, fromProc ProcID) (int, Addr) {
	return t.recvIntoOn(buf, 0, Any, fromThread, fromProc)
}

// TryRecv is the non-blocking probe-and-receive variant; ok is false when
// no matching message is queued. It probes the default channel.
func (t *Thread) TryRecv(fromThread int, fromProc ProcID) (data []byte, from Addr, ok bool) {
	return t.tryRecvOn(0, fromThread, fromProc)
}

func (t *Thread) tryRecvOn(ch ChannelID, fromThread int, fromProc ProcID) (data []byte, from Addr, ok bool) {
	p := t.proc
	i := p.matchStore(ch, Any, fromThread, fromProc, t.idx)
	if i < 0 {
		return nil, Addr{}, false
	}
	m := p.store[i]
	p.store = append(p.store[:i], p.store[i+1:]...)
	p.consume(t.mt, m)
	p.received.Add(1)
	return m.Data, Addr{Proc: m.From, Thread: m.FromThread}, true
}

// MessagesAvailable reports whether a Recv with the given match would
// complete immediately on the default channel.
func (t *Thread) MessagesAvailable(fromThread int, fromProc ProcID) bool {
	return t.proc.matchStore(0, Any, fromThread, fromProc, t.idx) >= 0
}

// consume charges the host-side receive cost (stack-to-application copy) in
// the context of the consuming scheduler thread.
func (p *Proc) consume(mt *mts.Thread, m *transport.Message) {
	if p.cfg.RecvCharge != nil {
		p.cfg.RecvCharge(mt, len(m.Data)+transport.HeaderSize)
	}
}

func (p *Proc) matchStore(ch ChannelID, tag, fromThread int, fromProc ProcID, toThread int) int {
	for i, m := range p.store {
		if p.matches(m, ch, tag, fromThread, fromProc, toThread) {
			return i
		}
	}
	return -1
}

// matches tests a receive pattern. Channel matching is exact: default
// Recv sees only default-channel traffic, and a Channel.Recv sees only its
// own — the isolation that lets two disciplines coexist on one pair.
func (p *Proc) matches(m *transport.Message, ch ChannelID, tag, fromThread int, fromProc ProcID, toThread int) bool {
	if m.Channel != ch {
		return false
	}
	if m.ToThread != toThread {
		return false
	}
	if tag != Any && m.Tag != tag {
		return false
	}
	if fromThread != Any && m.FromThread != fromThread {
		return false
	}
	if fromProc != ProcID(Any) && m.From != fromProc {
		return false
	}
	return true
}

// waiterMatches tests an arriving message against a parked waiter's
// pattern: the usual single-source pattern, or the any-of set used by
// out-of-order collection.
func (p *Proc) waiterMatches(w *recvWaiter, m *transport.Message) bool {
	if w.multi == nil {
		return p.matches(m, w.ch, w.tag, w.fromThread, w.fromProc, w.t.idx)
	}
	if m.Channel != w.ch || m.ToThread != w.t.idx {
		return false
	}
	if w.tag != Any && m.Tag != w.tag {
		return false
	}
	return addrIndex(w.multi, m) >= 0
}

// addrIndex returns the first index in set matching the message's source
// address (Any wildcards an entry's thread), or -1.
func addrIndex(set []Addr, m *transport.Message) int {
	for i, a := range set {
		if a.Proc == m.From && (a.Thread == Any || a.Thread == m.FromThread) {
			return i
		}
	}
	return -1
}

// dispatchData hands a data message to a parked waiter or stores it. rt is
// the thread draining the delivery (R under schedDriver).
func (p *Proc) dispatchData(rt *mts.Thread, m *transport.Message) {
	for i, w := range p.waiters {
		if p.waiterMatches(w, m) {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			// The receive thread performs the stack-to-app copy in its
			// own context, then wakes the compute thread.
			p.consume(rt, m)
			w.got = m
			p.cfg.RT.Unblock(w.t.mt, false)
			return
		}
	}
	p.store = append(p.store, m)
}

// ---------------------------------------------------------------------------
// Thread utilities

// Compute runs application work through the mode hook, tracing it as
// computation.
func (t *Thread) Compute(cost time.Duration, fn func()) {
	t.proc.traceThread(t, trace.Compute)
	t.proc.cfg.Compute(t.mt, cost, fn)
}

// Yield is the paper's voluntary context switch.
func (t *Thread) Yield() { t.mt.Yield() }

// Block parks the thread until another thread calls Unblock: the paper's
// NCS_block (used by the JPEG host, Figure 17). An Unblock that already
// happened is consumed immediately instead of being lost.
func (t *Thread) Block() {
	if t.blockPermit {
		t.blockPermit = false
		return
	}
	t.proc.traceThread(t, trace.Idle)
	t.mt.Park("ncs block")
	t.proc.traceThread(t, trace.Compute)
}

// Unblock wakes a thread parked in Block, or banks a permit if it has not
// blocked yet: the paper's NCS_unblock.
func (t *Thread) Unblock(other *Thread) {
	if other.mt.State() == mts.StateBlocked && other.mt.BlockReason() == "ncs block" {
		t.proc.cfg.RT.Unblock(other.mt, false)
		return
	}
	other.blockPermit = true
}

// Bcast sends data to every address in list: the paper's NCS_bcast
// (1-to-many group communication). Transfers are queued in list order
// through the lane. This is the linear O(N) path — the
// sender serializes one copy per destination; Group.Bcast is the
// logarithmic tree alternative (and degenerates to this shape at
// Fanout >= N, which is how the scale benches A/B the two).
func (t *Thread) Bcast(list []Addr, data []byte) {
	for _, a := range list {
		t.Send(a.Thread, a.Proc, data)
	}
}

// Gather receives one message from every address in list (many-to-1),
// returning payloads in list order. Arrivals complete out of order: a slow
// peer delays only its own slot, never payloads already delivered (each
// source's messages still fill its list slots in per-pair FIFO order).
// Group.Gather is the tree-structured alternative for large N.
func (t *Thread) Gather(list []Addr) [][]byte {
	out := make([][]byte, len(list))
	pending := append([]Addr(nil), list...)
	slot := make([]int, len(list))
	for i := range slot {
		slot[i] = i
	}
	for len(pending) > 0 {
		m, i := t.recvAnyOf(0, Any, pending)
		out[slot[i]] = m.Data
		pending = append(pending[:i], pending[i+1:]...)
		slot = append(slot[:i], slot[i+1:]...)
	}
	return out
}
