package core

import (
	"fmt"
	"time"

	"repro/internal/atm"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the signaled channel lifecycle: Proc.Open's static,
// both-ends-agree channel model wired through the SVC signaling story the
// paper's NYNET substrate provides (atm.SigMessage, the Q.2931-flavoured
// SETUP/CONNECT/RELEASE family carried on VPI 0 / VCI 5 by the simulated
// switch). OpenCall performs a blocking end-to-end call setup — the callee
// allocates the VC and discipline state, the caller gets a live channel or
// a typed rejection — and CloseCall performs a signaled close handshake
// that drains in-flight data on both ends before either releases its VC,
// discipline, flush-wheel, and lane-scheduler state.
//
// State machine (per channel end):
//
//	OPENING --CONNECT--> OPEN --CloseCall/RELEASE--> CLOSING --drained--> CLOSED
//	   \--REJECT/timeout--> CLOSED
//
// During CLOSING the channel's *receiver* role stays live — arriving data
// is delivered, credits and acks keep flowing so the peer can drain — but
// new sends fail with *ChannelClosedError. The end that finishes draining
// sends RELEASE; the peer drains its own sender side, answers
// RELEASE-COMPLETE, and both ends finalize: the channel leaves the table,
// the carrier unbinds the per-call VC route, and the admission policy gets
// its slot back. Every transition is balance-counted (channels opened ==
// closed, VCs bound == released, ...) so churn scenarios can assert zero
// leaked state; see Proc.Lifecycle and Proc.Leaks.
//
// Everything here runs in the scheduler domain: signaling frames arrive
// through the lane drain, and every timer rides Config.After — so the same
// code is deterministic under a VirtualTime mesh and needs no locking for
// the call table or the per-channel signaling flags. The one lane-visible field, Channel.state, is
// atomic: lane engines read it on the send path (sendUnavailable) without
// entering the scheduler domain.

// Signaling control tags (continuing the reserved negative tag space of
// core.go). The wire codec carries tags as int32, so negatives survive the
// trip.
const (
	tagSigSetup   = -6
	tagSigConnect = -7
	tagSigReject  = -8
	tagSigRelease = -9
	tagSigRelComp = -10
)

// isSigTag reports whether tag is one of the signaling control tags
// (including the heartbeat, tagSigBeat in failure.go).
func isSigTag(tag int) bool { return tag <= tagSigSetup && tag >= tagSigBeat }

// Channel lifecycle states (Channel.state). Statically opened channels
// (Proc.Open, default channels) stay chanStatic forever: their lifecycle is
// Close's local-only teardown, unchanged.
const (
	chanStatic uint32 = iota
	chanOpening
	chanOpen
	chanClosing
	chanClosed
)

// CallCause classifies why a call setup was rejected or a channel released
// — the RELEASE/REJECT cause codes of the signaling protocol, surfaced as
// the typed failure in OpenError.
type CallCause uint8

// Call rejection / release causes.
const (
	CauseNone CallCause = iota
	// CauseAdmissionDenied: the callee's AdmissionPolicy refused the call.
	CauseAdmissionDenied
	// CauseBusy: the requested channel ID is already in use (or no ID is
	// free) between this process pair.
	CauseBusy
	// CauseTimeout: no CONNECT or REJECT within the retry budget — the peer
	// is unreachable, dead, or overloaded past responding.
	CauseTimeout
	// CauseUnsupported: the callee could not decode the requested QoS
	// (unknown discipline, invalid parameters).
	CauseUnsupported
	// CausePeerClosed: the callee process is shutting down.
	CausePeerClosed
	// CausePeerDead: the heartbeat failure detector declared the peer dead
	// (see failure.go); outstanding call setups toward it fail with this.
	CausePeerDead
)

func (c CallCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseAdmissionDenied:
		return "admission-denied"
	case CauseBusy:
		return "busy"
	case CauseTimeout:
		return "timeout"
	case CauseUnsupported:
		return "unsupported"
	case CausePeerClosed:
		return "peer-closed"
	case CausePeerDead:
		return "peer-dead"
	default:
		return fmt.Sprintf("cause(%d)", uint8(c))
	}
}

// OpenError is OpenCall's typed failure: the signaling cause plus how many
// SETUP attempts were spent.
type OpenError struct {
	Peer     ProcID
	ID       ChannelID
	Cause    CallCause
	Attempts int
}

func (e *OpenError) Error() string {
	return fmt.Sprintf("core: open channel %d to proc %d failed after %d attempt(s): %s",
		e.ID, e.Peer, e.Attempts, e.Cause)
}

// ChannelClosedError reports a send on a closed (or closing) channel. It is
// raised through the proc's exception handler — Send returns no error, as
// in the paper's API — uniformly across all disciplines and both execution
// paths; the default handler still panics.
type ChannelClosedError struct {
	Local, Peer ProcID
	ID          ChannelID
}

func (e *ChannelClosedError) Error() string {
	return fmt.Sprintf("core(proc %d): send on closed channel %d to proc %d", e.Local, e.ID, e.Peer)
}

// Setup handshake defaults (see CallConfig).
const (
	DefaultSetupTimeout = 10 * time.Millisecond
	DefaultSetupRetries = 3
)

// Release-handshake tuning: how long the closing end waits for
// RELEASE-COMPLETE before retransmitting RELEASE, and how many attempts it
// spends before force-finalizing against an unresponsive peer.
const (
	sigReleaseTimeout     = 10 * time.Millisecond
	sigMaxReleaseAttempts = 10
)

// sigDrainPoll is the close handshake's drain-check period: how often a
// CLOSING channel re-checks that its send queue, flow tier, and error tier
// have gone empty before the RELEASE may be sent.
const sigDrainPoll = 200 * time.Microsecond

// CallConfig parameterizes OpenCall: the ChannelConfig QoS selection plus
// the setup handshake's retry budget. The Flow/Error instances configure
// *this* end; their parameters travel in the SETUP so the callee builds
// matching disciplines (only the built-in disciplines — WindowFlow,
// RateFlow, GoBackN, SelectiveRepeat, or none — can travel; anything else
// fails with CauseUnsupported).
type CallConfig struct {
	// ID requests a specific channel ID (1..MaxChannelID); 0 lets the
	// caller pick the lowest free ID toward the peer.
	ID ChannelID
	// Priority, Lane, Weight: as ChannelConfig.
	Priority int
	Lane     int
	Weight   int
	// Flow and Error select the disciplines, as ChannelConfig.
	Flow  FlowControl
	Error ErrorControl
	// SetupTimeout is the per-attempt wait for CONNECT/REJECT; 0 selects
	// DefaultSetupTimeout.
	SetupTimeout time.Duration
	// Retries is the total SETUP attempt budget (first transmission
	// included); 0 selects DefaultSetupRetries.
	Retries int
	// Backoff is the extra delay added per retry attempt (linear, plus a
	// deterministic per-call jitter so synchronized callers spread out);
	// 0 selects SetupTimeout/2.
	Backoff time.Duration
	// IdleTimeout overrides the proc-wide Config.SigIdleTimeout for this
	// call on *both* ends (it travels in the SETUP): positive arms the
	// idle reaper at that period, negative disables it for this channel,
	// 0 inherits the proc-wide setting.
	IdleTimeout time.Duration
}

// ---------------------------------------------------------------------------
// Admission control

// AdmissionPolicy is the callee-side seam judging incoming SETUPs. All
// calls run in the callee's scheduler domain, so implementations need no
// locking; now is the scheduler clock (virtual under a VirtualTime mesh),
// injected so policies never touch the wall clock. Admit returning false
// rejects the call with the given cause (CauseNone maps to
// CauseAdmissionDenied). Release is called once per admitted call when the
// channel finalizes, so stateful policies (per-peer caps) can return the
// slot.
type AdmissionPolicy interface {
	Name() string
	Admit(peer ProcID, id ChannelID, now time.Duration) (bool, CallCause)
	Release(peer ProcID)
}

// AlwaysAdmit accepts every call — the default when Config.Admission is
// nil.
type AlwaysAdmit struct{}

// Name implements AdmissionPolicy.
func (AlwaysAdmit) Name() string                                             { return "always" }
func (AlwaysAdmit) Admit(ProcID, ChannelID, time.Duration) (bool, CallCause) { return true, CauseNone }
func (AlwaysAdmit) Release(ProcID)                                           {}

// TokenBucketAdmission admits calls at a sustained rate with a burst
// allowance: each admitted call costs one token, tokens refill at
// ratePerSec up to burst. Overload fails fast with CauseAdmissionDenied
// instead of queueing.
type TokenBucketAdmission struct {
	rate, burst float64
	tokens      float64
	last        time.Duration
	primed      bool
}

// NewTokenBucketAdmission builds a token-bucket policy; the bucket starts
// full.
func NewTokenBucketAdmission(ratePerSec, burst float64) *TokenBucketAdmission {
	return &TokenBucketAdmission{rate: ratePerSec, burst: burst, tokens: burst}
}

// Name implements AdmissionPolicy.
func (a *TokenBucketAdmission) Name() string { return "token-bucket" }

// Admit implements AdmissionPolicy.
func (a *TokenBucketAdmission) Admit(_ ProcID, _ ChannelID, now time.Duration) (bool, CallCause) {
	if a.primed {
		if dt := (now - a.last).Seconds(); dt > 0 {
			a.tokens += dt * a.rate
			if a.tokens > a.burst {
				a.tokens = a.burst
			}
		}
	}
	a.primed = true
	a.last = now
	if a.tokens < 1 {
		return false, CauseAdmissionDenied
	}
	a.tokens--
	return true, CauseNone
}

// Release implements AdmissionPolicy (token buckets meter setup rate, not
// concurrency, so nothing returns).
func (a *TokenBucketAdmission) Release(ProcID) {}

// PeerCapAdmission bounds concurrently open signaled channels per calling
// peer; slots return when channels finalize.
type PeerCapAdmission struct {
	max  int
	open map[ProcID]int
}

// NewPeerCapAdmission builds a per-peer concurrency cap.
func NewPeerCapAdmission(maxPerPeer int) *PeerCapAdmission {
	return &PeerCapAdmission{max: maxPerPeer, open: make(map[ProcID]int)}
}

// Name implements AdmissionPolicy.
func (a *PeerCapAdmission) Name() string { return "peer-cap" }

// Admit implements AdmissionPolicy.
func (a *PeerCapAdmission) Admit(peer ProcID, _ ChannelID, _ time.Duration) (bool, CallCause) {
	if a.open[peer] >= a.max {
		return false, CauseAdmissionDenied
	}
	a.open[peer]++
	return true, CauseNone
}

// Release implements AdmissionPolicy.
func (a *PeerCapAdmission) Release(peer ProcID) {
	if a.open[peer] > 0 {
		a.open[peer]--
	}
}

// ---------------------------------------------------------------------------
// Caller side: OpenCall

// sigCall states.
const (
	sigCalling = iota
	sigConnected
	sigFailed
)

// sigCall is one outstanding outgoing call setup, keyed by call reference
// in Proc.sigCalls. Scheduler-domain state.
type sigCall struct {
	ref       uint32
	peer      ProcID
	id        ChannelID
	cfg       CallConfig
	caller    *mts.Thread
	callerIdx int
	state     int
	cause     CallCause
	attempt   int
	ch        *Channel
}

// OpenCall opens a signaled channel to peer: it sends SETUP through the
// signaling band, parks the calling thread until the callee answers
// CONNECT (returning the live channel) or REJECT (returning *OpenError
// with the callee's cause), retransmitting with linear jittered backoff up
// to cfg.Retries attempts before giving up with CauseTimeout. Unlike
// Proc.Open, only this end calls it — the callee allocates its channel and
// discipline state from the SETUP's parameters. Call from a running thread
// of this process.
func (p *Proc) OpenCall(t *Thread, peer ProcID, cfg CallConfig) (*Channel, error) {
	if t.proc != p {
		panic("core: thread opening a call on another process")
	}
	if peer == p.cfg.ID {
		panic("core: cannot open a signaled channel to self")
	}
	if cfg.Priority < 0 || cfg.Priority >= NumChannelPriorities {
		panic(fmt.Sprintf("core: channel priority must be 0..%d", NumChannelPriorities-1))
	}
	if cfg.Weight < 0 {
		panic("core: channel weight must be >= 0 (0 selects Priority+1)")
	}
	if cfg.SetupTimeout <= 0 {
		cfg.SetupTimeout = DefaultSetupTimeout
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultSetupRetries
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = cfg.SetupTimeout / 2
	}
	words, ok := encodeCallWords(cfg)
	if !ok {
		return nil, &OpenError{Peer: peer, ID: cfg.ID, Cause: CauseUnsupported}
	}
	id := cfg.ID
	if id == 0 {
		if id = p.freeChannelID(peer); id == 0 {
			return nil, &OpenError{Peer: peer, Cause: CauseBusy}
		}
	} else {
		if id > MaxChannelID {
			panic(fmt.Sprintf("core: channel ID must be 1..%d (0 picks a free ID)", MaxChannelID))
		}
		p.chanMu.RLock()
		_, dup := p.channels[chanKey{peer: peer, id: id}]
		p.chanMu.RUnlock()
		if dup {
			return nil, &OpenError{Peer: peer, ID: id, Cause: CauseBusy}
		}
	}
	fc := cfg.Flow
	if fc == nil {
		fc = NoFlowControl{}
	}
	ec := cfg.Error
	if ec == nil {
		ec = NoErrorControl{}
	}
	// Dialing (or re-dialing) a peer starts the failure detector's view of
	// it over: the death record clears and monitoring restarts with a fresh
	// grace period, so Redial can reach a restarted peer.
	delete(p.deadPeers, peer)
	delete(p.hbPeers, peer)
	c := p.addChannel(chanKey{peer: peer, id: id}, cfg.Priority, cfg.Lane, cfg.Weight, fc, ec)
	c.idleOver = cfg.IdleTimeout
	p.sigRefSeq++
	ref := p.sigRefSeq
	c.state.Store(chanOpening)
	c.sigInit = true
	c.sigRef = ref
	if p.sigCalls == nil {
		p.sigCalls = make(map[uint32]*sigCall)
	}
	call := &sigCall{ref: ref, peer: peer, id: id, cfg: cfg, caller: t.mt, callerIdx: t.idx, attempt: 1, ch: c}
	p.sigCalls[ref] = call
	p.statSetupsSent.Add(1)
	p.sendSetup(call, words)
	p.armSetupTimer(call, 1)
	// The signaling handlers and timers all run in the scheduler domain, so
	// the state cannot change between this check and the park — no lost
	// wakeup is possible.
	for call.state == sigCalling {
		t.mt.Park("ncs call")
	}
	if call.state == sigConnected {
		return c, nil
	}
	return nil, &OpenError{Peer: peer, ID: id, Cause: call.cause, Attempts: call.attempt}
}

// freeChannelID scans for the lowest unused explicit channel ID toward
// peer (0 when the whole space is occupied).
func (p *Proc) freeChannelID(peer ProcID) ChannelID {
	p.chanMu.RLock()
	defer p.chanMu.RUnlock()
	for id := 1; id <= MaxChannelID; id++ {
		if _, ok := p.channels[chanKey{peer: peer, id: ChannelID(id)}]; !ok {
			return ChannelID(id)
		}
	}
	return 0
}

func (p *Proc) sendSetup(call *sigCall, words [8]uint32) {
	sig := atm.SigMessage{
		Type:    atm.SigSetup,
		CallRef: call.ref,
		Caller:  int32(p.cfg.ID),
		Called:  int32(call.peer),
		Forward: atm.VC{VPI: uint8(call.id)},
	}
	// The 9th word after the QoS block is the calling-party thread index,
	// surfaced on the callee as Channel.PeerThread so a serving thread can
	// address the opener before any application rendezvous; the 10th is the
	// per-call idle-timeout override, so both ends arm the same reaper.
	p.sendSigMsg(call.peer, tagSigSetup, sig,
		append(words[:], uint32(call.callerIdx), encodeIdleWord(call.cfg.IdleTimeout))...)
}

// armSetupTimer schedules attempt's timeout: the per-attempt SetupTimeout
// plus linear backoff and a deterministic per-(proc, call, attempt) jitter
// so a mesh of synchronized callers doesn't retry in lockstep.
func (p *Proc) armSetupTimer(call *sigCall, attempt int) {
	d := call.cfg.SetupTimeout + time.Duration(attempt-1)*call.cfg.Backoff +
		sigJitter(uint32(p.cfg.ID), call.ref, uint32(attempt), call.cfg.Backoff)
	p.cfg.After(d, func() { p.setupTimeout(call, attempt) })
}

func (p *Proc) setupTimeout(call *sigCall, attempt int) {
	// Stale-timer guard: the call may have completed, failed, or already
	// moved past this attempt.
	cur, ok := p.sigCalls[call.ref]
	if !ok || cur != call || call.state != sigCalling || call.attempt != attempt {
		return
	}
	if attempt < call.cfg.Retries {
		call.attempt = attempt + 1
		p.statSetupRetries.Add(1)
		p.statSetupsSent.Add(1)
		words, _ := encodeCallWords(call.cfg)
		p.sendSetup(call, words)
		p.armSetupTimer(call, call.attempt)
		return
	}
	call.state = sigFailed
	call.cause = CauseTimeout
	delete(p.sigCalls, call.ref)
	// Fire-and-forget RELEASE: if the peer did accept (its CONNECT was
	// lost), this tears its half-open channel down instead of leaking it.
	p.sendReleaseRaw(call.peer, call.id, call.ref, CauseTimeout)
	p.finalizeChannel(call.ch)
	p.wakeIfIdle(call.caller, "ncs call")
}

// sigJitter derives a deterministic jitter in [0, span) from three words
// (FNV-1a), so retry/release timers spread without touching a global RNG —
// the virtual-time determinism contract.
func sigJitter(a, b, c uint32, span time.Duration) time.Duration {
	if span <= 0 {
		return 0
	}
	h := uint32(2166136261)
	for _, v := range [3]uint32{a, b, c} {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 16777619
		}
	}
	return time.Duration(h%1024) * span / 1024
}

// ---------------------------------------------------------------------------
// QoS parameter encoding
//
// A SETUP carries the call's QoS as 8 uint32 words after the marshalled
// SigMessage: [priority, weight, flowKind, flowA, flowB, errKind, errA,
// errB]. flowKind 0 = none, 1 = window (A = Window, B = SyncInterval µs),
// 2 = rate (A = bytes/s, B = bucket bytes); errKind 0 = none, 1 =
// go-back-N, 2 = selective repeat (A = Window, B = Timeout µs). A 9th
// word follows with the calling-party thread index (Channel.PeerThread),
// and a 10th with the per-call idle-timeout override (encodeIdleWord).

func encodeCallWords(cfg CallConfig) ([8]uint32, bool) {
	var w [8]uint32
	w[0] = uint32(cfg.Priority)
	w[1] = uint32(cfg.Weight)
	switch fc := cfg.Flow.(type) {
	case nil:
	case NoFlowControl:
	case *WindowFlow:
		w[2] = 1
		w[3] = satU32(int64(fc.Window))
		w[4] = satU32(int64(fc.SyncInterval / time.Microsecond))
	case *RateFlow:
		w[2] = 2
		w[3] = satU32f(fc.Rate)
		w[4] = satU32f(fc.Bucket)
	default:
		return w, false
	}
	switch ec := cfg.Error.(type) {
	case nil:
	case NoErrorControl:
	case *GoBackN:
		w[5] = 1
		w[6] = satU32(int64(ec.Window))
		w[7] = satU32(int64(ec.Timeout / time.Microsecond))
	case *SelectiveRepeat:
		w[5] = 2
		w[6] = satU32(int64(ec.Window))
		w[7] = satU32(int64(ec.Timeout / time.Microsecond))
	default:
		return w, false
	}
	return w, true
}

func decodeCallWords(w []uint32) (prio, weight int, fc FlowControl, ec ErrorControl, ok bool) {
	if len(w) < 8 {
		return 0, 0, nil, nil, false
	}
	prio, weight = int(w[0]), int(w[1])
	if prio >= NumChannelPriorities || weight < 0 {
		return 0, 0, nil, nil, false
	}
	switch w[2] {
	case 0:
		fc = NoFlowControl{}
	case 1:
		if w[3] < 1 {
			return 0, 0, nil, nil, false
		}
		f := NewWindowFlow(int(w[3]))
		f.SyncInterval = time.Duration(w[4]) * time.Microsecond
		fc = f
	case 2:
		if w[3] == 0 || w[4] == 0 {
			return 0, 0, nil, nil, false
		}
		fc = NewRateFlow(float64(w[3]), float64(w[4]))
	default:
		return 0, 0, nil, nil, false
	}
	switch w[5] {
	case 0:
		ec = NoErrorControl{}
	case 1:
		if w[6] < 1 || w[7] < 1 {
			return 0, 0, nil, nil, false
		}
		ec = NewGoBackN(int(w[6]), time.Duration(w[7])*time.Microsecond)
	case 2:
		if w[6] < 1 || w[7] < 1 {
			return 0, 0, nil, nil, false
		}
		ec = NewSelectiveRepeat(int(w[6]), time.Duration(w[7])*time.Microsecond)
	default:
		return 0, 0, nil, nil, false
	}
	return prio, weight, fc, ec, true
}

// encodeIdleWord packs CallConfig.IdleTimeout into its SETUP word:
// microseconds, with all-ones meaning "explicitly disabled" and zero
// "inherit the proc-wide SigIdleTimeout". decodeIdleWord inverts it.
func encodeIdleWord(d time.Duration) uint32 {
	if d < 0 {
		return ^uint32(0)
	}
	return satU32(int64(d / time.Microsecond))
}

func decodeIdleWord(w uint32) time.Duration {
	if w == ^uint32(0) {
		return -1
	}
	return time.Duration(w) * time.Microsecond
}

func satU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

func satU32f(v float64) uint32 {
	if v < 0 {
		return 0
	}
	if v > float64(1<<32-1) {
		return 1<<32 - 1
	}
	return uint32(v)
}

// ---------------------------------------------------------------------------
// Wire plumbing

// sendSigMsg queues one signaling frame toward the peer: sig marshalled
// plus the trailing uint32 words, riding the control level like every
// other control frame. Signaling always travels on channel 0 — the
// pre-provisioned default mesh, the analogue of ATM's well-known
// signaling circuit — because the channel under negotiation has no VC
// route yet (SETUP) or no longer has one (late RELEASE retries); the
// channel the call is about rides in sig.Forward's VPI.
func (p *Proc) sendSigMsg(to ProcID, tag int, sig atm.SigMessage, words ...uint32) {
	p.sendCtrl(to, tag, sig.Marshal(), words...)
}

// onSigMsg dispatches one arriving signaling frame. Scheduler domain; the
// caller releases m afterwards, so nothing here may retain it.
func (p *Proc) onSigMsg(m *transport.Message) {
	if m.Tag == tagSigBeat {
		// Heartbeats are bare one-word frames — no marshalled SigMessage.
		if len(m.Data) >= 4 {
			p.onBeat(m.From, wire.Uint32(m.Data))
		}
		return
	}
	if len(m.Data) < atm.SigWireSize {
		p.exception(fmt.Errorf("core: short signaling frame (%d bytes) from proc %d", len(m.Data), m.From))
		return
	}
	sig, err := atm.UnmarshalSig(m.Data[:atm.SigWireSize])
	if err != nil {
		p.exception(fmt.Errorf("core: bad signaling frame from proc %d: %v", m.From, err))
		return
	}
	rest := m.Data[atm.SigWireSize:]
	nw := len(rest) / 4
	if nw > 10 {
		nw = 10
	}
	var words [10]uint32
	for i := 0; i < nw; i++ {
		words[i] = wire.Uint32(rest[4*i:])
	}
	// Signaling frames ride channel 0; the channel under negotiation is
	// the forward VC's VPI (see sendSigMsg).
	id := ChannelID(sig.Forward.VPI)
	switch m.Tag {
	case tagSigSetup:
		if nw < 8 {
			p.exception(fmt.Errorf("core: SETUP from proc %d carries %d QoS words, want 8", m.From, nw))
			return
		}
		p.onSetup(m.From, id, sig, words)
	case tagSigConnect:
		p.onConnect(sig)
	case tagSigReject:
		cause := CauseAdmissionDenied
		if nw >= 1 {
			cause = CallCause(words[0])
		}
		p.onReject(sig, cause)
	case tagSigRelease:
		cause := CauseNone
		if nw >= 1 {
			cause = CallCause(words[0])
		}
		p.onRelease(m.From, id, sig, cause)
	case tagSigRelComp:
		p.onRelComp(m.From, id)
	}
}

// ---------------------------------------------------------------------------
// Callee side

// pendingSetup is one queued incoming call (Config.AcceptQueue).
type pendingSetup struct {
	from  ProcID
	id    ChannelID
	sig   atm.SigMessage
	words [10]uint32
}

// onSetup judges one incoming call: admission policy, QoS decode, channel
// allocation, VC bind — then CONNECT; any refusal answers REJECT with a
// cause instead of leaving the caller hanging. With Config.AcceptQueue set
// the SETUP instead joins a bounded listener-side queue and is served one
// per scheduler pass — backpressure instead of instant rejection when the
// app is slow in OnAccept — overflowing with CauseBusy.
func (p *Proc) onSetup(from ProcID, id ChannelID, sig atm.SigMessage, words [10]uint32) {
	// A peer dialing us is alive by definition: clear any stale death
	// record so its new call is monitored with a fresh grace period.
	delete(p.deadPeers, from)
	delete(p.hbPeers, from)
	if p.setupPrechecked(from, id, sig) {
		return
	}
	if p.cfg.AcceptQueue > 0 {
		for _, ps := range p.acceptQ {
			if ps.from == from && ps.id == id && ps.sig.CallRef == sig.CallRef {
				return // retransmitted SETUP; the original is still queued
			}
		}
		if len(p.acceptQ) >= p.cfg.AcceptQueue {
			p.rejectSetup(from, sig, CauseBusy)
			return
		}
		p.acceptQ = append(p.acceptQ, pendingSetup{from: from, id: id, sig: sig, words: words})
		if !p.acceptOn {
			p.acceptOn = true
			p.cfg.After(0, p.acceptNext)
		}
		return
	}
	p.acceptSetup(from, id, sig, words)
}

// rejectSetup answers a SETUP with REJECT and the given cause.
func (p *Proc) rejectSetup(from ProcID, sig atm.SigMessage, cause CallCause) {
	p.statSetupsRejected.Add(1)
	rs := atm.SigMessage{Type: atm.SigReject, CallRef: sig.CallRef, Caller: sig.Caller, Called: sig.Called, Forward: sig.Forward}
	p.sendSigMsg(from, tagSigReject, rs, uint32(cause))
}

// setupPrechecked runs the synchronous, idempotent SETUP checks — invalid
// ID, closing proc, duplicate call — answering directly (REJECT, or a
// repeated CONNECT for a call already accepted) and reporting whether the
// SETUP is fully dealt with. Runs both on arrival and again when a queued
// SETUP is finally served, since the state may have moved in between.
func (p *Proc) setupPrechecked(from ProcID, id ChannelID, sig atm.SigMessage) bool {
	if id == 0 || id > MaxChannelID {
		p.rejectSetup(from, sig, CauseUnsupported)
		return true
	}
	if p.closing.Load() {
		p.rejectSetup(from, sig, CausePeerClosed)
		return true
	}
	p.chanMu.RLock()
	exist, dup := p.channels[chanKey{peer: from, id: id}]
	p.chanMu.RUnlock()
	if dup {
		if exist.sigRef == sig.CallRef && !exist.sigInit && exist.state.Load() == chanOpen {
			// Duplicate SETUP for a call we already accepted (our CONNECT
			// was lost, or the retry raced it): answer again, idempotently.
			p.sendConnect(from, id, sig)
			return true
		}
		p.rejectSetup(from, sig, CauseBusy)
		return true
	}
	return false
}

// acceptNext serves the head of the accept queue and re-arms for the rest:
// one call per zero-delay scheduler event, so a burst of SETUPs cannot
// monopolize a pass, and each queued call is re-prechecked at serve time.
func (p *Proc) acceptNext() {
	if len(p.acceptQ) == 0 {
		p.acceptOn = false
		return
	}
	ps := p.acceptQ[0]
	n := copy(p.acceptQ, p.acceptQ[1:])
	p.acceptQ[n] = pendingSetup{}
	p.acceptQ = p.acceptQ[:n]
	if !p.setupPrechecked(ps.from, ps.id, ps.sig) {
		p.acceptSetup(ps.from, ps.id, ps.sig, ps.words)
	}
	if len(p.acceptQ) > 0 {
		p.cfg.After(0, p.acceptNext)
	} else {
		p.acceptOn = false
	}
}

// acceptSetup is the accept tail shared by the direct and queued paths:
// admission, QoS decode, channel allocation, VC bind, CONNECT, OnAccept.
func (p *Proc) acceptSetup(from ProcID, id ChannelID, sig atm.SigMessage, words [10]uint32) {
	pol := p.cfg.Admission
	if pol == nil {
		pol = AlwaysAdmit{}
	}
	if ok, cause := pol.Admit(from, id, time.Duration(p.cfg.RT.Now())); !ok {
		if cause == CauseNone {
			cause = CauseAdmissionDenied
		}
		p.rejectSetup(from, sig, cause)
		return
	}
	prio, weight, fc, ec, ok := decodeCallWords(words[:])
	if !ok {
		pol.Release(from)
		p.rejectSetup(from, sig, CauseUnsupported)
		return
	}
	c := p.addChannel(chanKey{peer: from, id: id}, prio, 0, weight, fc, ec)
	c.state.Store(chanOpen)
	c.everOpen = true
	c.sigRef = sig.CallRef
	c.sigAdmitted = true
	c.peerThread = int(words[8])
	c.idleOver = decodeIdleWord(words[9])
	p.statSetupsAccepted.Add(1)
	p.statOpened.Add(1)
	p.bindVC(c)
	p.armIdleTeardown(c)
	p.sendConnect(from, id, sig)
	if p.cfg.OnAccept != nil {
		p.cfg.OnAccept(c)
	}
}

func (p *Proc) sendConnect(to ProcID, id ChannelID, sig atm.SigMessage) {
	cs := atm.SigMessage{
		Type: atm.SigConnect, CallRef: sig.CallRef, Caller: sig.Caller, Called: sig.Called,
		Forward: atm.VC{VPI: uint8(id)}, Backward: atm.VC{VPI: uint8(id)},
	}
	p.sendSigMsg(to, tagSigConnect, cs)
}

func (p *Proc) onConnect(sig atm.SigMessage) {
	call, ok := p.sigCalls[sig.CallRef]
	if !ok || call.state != sigCalling {
		return // late or duplicate CONNECT; the call already resolved
	}
	c := call.ch
	c.state.Store(chanOpen)
	c.everOpen = true
	p.statOpened.Add(1)
	p.bindVC(c)
	p.armIdleTeardown(c)
	delete(p.sigCalls, sig.CallRef)
	call.state = sigConnected
	p.wakeIfIdle(call.caller, "ncs call")
}

func (p *Proc) onReject(sig atm.SigMessage, cause CallCause) {
	call, ok := p.sigCalls[sig.CallRef]
	if !ok || call.state != sigCalling {
		return
	}
	if cause == CauseNone {
		cause = CauseAdmissionDenied
	}
	call.state = sigFailed
	call.cause = cause
	delete(p.sigCalls, sig.CallRef)
	p.finalizeChannel(call.ch)
	p.wakeIfIdle(call.caller, "ncs call")
}

// ---------------------------------------------------------------------------
// Close handshake

// CloseCall closes a signaled channel with a full handshake: new sends on
// this end fail immediately, in-flight data and pending control drain,
// then a RELEASE tells the peer — which drains its own sender side and
// answers RELEASE-COMPLETE — and both ends release their VC, discipline,
// flush-wheel, and lane-scheduler state. The calling thread parks until
// this end has finalized. Idempotent; concurrent CloseCalls from several
// threads all wake when teardown completes. Statically opened channels
// (Proc.Open) are not signaled — use Close.
func (c *Channel) CloseCall(t *Thread) error {
	if t.proc != c.p {
		panic("core: thread closing another process's channel")
	}
	if c.sigRef == 0 {
		return fmt.Errorf("core: channel %d to proc %d is not signaled; use Close", c.id, c.peer)
	}
	if c.closedDone {
		return nil
	}
	p := c.p
	c.closeWaiters = append(c.closeWaiters, t.mt)
	p.startClose(c, CauseNone)
	for !c.closedDone {
		t.mt.Park("ncs close")
	}
	return nil
}

// startClose begins the active close: stop admitting sends, drain, then
// RELEASE. Idempotent; also the entry point for timer-driven closes (idle
// teardown), which have no waiter to wake.
func (p *Proc) startClose(c *Channel, cause CallCause) {
	if c.closeStarted || c.closedDone {
		return
	}
	c.closeStarted = true
	p.beginClosing(c)
	p.afterDrained(c, func() { p.sendRelease(c, cause) })
}

// beginClosing moves the channel to CLOSING: pending reverse control
// flushes, the disciplines shut down (gated sends fail; the in-flight
// error-control window keeps draining), and new sends start failing via
// sendUnavailable. The receiver role stays live so the peer can drain.
func (p *Proc) beginClosing(c *Channel) {
	ln := c.lockLane()
	if c.state.Load() >= chanClosing {
		ln.mu.Unlock()
		return
	}
	c.state.Store(chanClosing)
	c.flushCtrl()
	c.flow.shutdown()
	c.errc.shutdown()
	ln.serviceLocked()
	ln.mu.Unlock()
	ln.runDrain()
}

// drainedForClose reports whether the channel's sender side has fully
// drained: nothing queued in the lane scheduler, nothing deferred in the
// flow tier, and nothing in flight awaiting acknowledgement. Termination
// is guaranteed — the disciplines' MaxRetries abandonment empties the
// in-flight window even against a dead peer.
func (p *Proc) drainedForClose(c *Channel) bool {
	c.laneLock()
	drained := c.sq.Size() == 0 && c.flow.queued() == 0 && c.errc.queued() == 0 && c.errc.pending() == 0
	c.laneUnlock()
	return drained
}

// afterDrained runs fn once drainedForClose holds, polling on the
// scheduler clock. The chain stops dead if the channel finalizes first
// (the peer's close won the race) so a virtual-time engine can quiesce.
func (p *Proc) afterDrained(c *Channel, fn func()) {
	var poll func()
	poll = func() {
		if c.closedDone {
			return
		}
		if p.drainedForClose(c) {
			fn()
			return
		}
		p.cfg.After(sigDrainPoll, poll)
	}
	poll()
}

// sendRelease transmits RELEASE and arms its retransmission: a lost
// RELEASE or RELEASE-COMPLETE is survived by retrying, an unresponsive
// peer by force-finalizing after sigMaxReleaseAttempts.
func (p *Proc) sendRelease(c *Channel, cause CallCause) {
	if c.closedDone {
		return
	}
	c.relSent = true
	c.relAttempt++
	attempt := c.relAttempt
	if attempt > sigMaxReleaseAttempts {
		p.finalizeChannel(c)
		return
	}
	p.sendReleaseRaw(c.peer, c.id, c.sigRef, cause)
	d := sigReleaseTimeout + sigJitter(uint32(p.cfg.ID), c.sigRef, uint32(attempt), sigReleaseTimeout/2)
	p.cfg.After(d, func() {
		if c.closedDone || c.relAttempt != attempt {
			return
		}
		p.sendRelease(c, cause)
	})
}

func (p *Proc) sendReleaseRaw(peer ProcID, id ChannelID, ref uint32, cause CallCause) {
	sig := atm.SigMessage{
		Type: atm.SigRelease, CallRef: ref,
		Caller: int32(p.cfg.ID), Called: int32(peer),
		Forward: atm.VC{VPI: uint8(id)},
	}
	p.sendSigMsg(peer, tagSigRelease, sig, uint32(cause))
}

// onRelease handles the peer's RELEASE: the passive side of the close
// handshake. It drains this end's sender side before answering
// RELEASE-COMPLETE, so data already admitted still arrives; every
// duplicate or late RELEASE is answered idempotently.
func (p *Proc) onRelease(from ProcID, id ChannelID, sig atm.SigMessage, cause CallCause) {
	relComp := func() {
		rc := atm.SigMessage{
			Type: atm.SigReleaseComplete, CallRef: sig.CallRef,
			Caller: sig.Caller, Called: sig.Called,
			Forward: atm.VC{VPI: uint8(id)},
		}
		p.sendSigMsg(from, tagSigRelComp, rc)
	}
	_ = cause
	p.chanMu.RLock()
	c, ok := p.channels[chanKey{peer: from, id: id}]
	p.chanMu.RUnlock()
	if !ok || c.closedDone {
		// Already finalized here (or never existed — a timed-out caller
		// releasing a half-open call): completing again is idempotent.
		relComp()
		return
	}
	if c.sigRef == 0 {
		return // statically opened channel; signaling doesn't own it
	}
	if c.relSent || c.closeStarted {
		// Simultaneous close, or the peer finished draining first:
		// whatever is still in flight from this end has no receiver
		// anymore, so cut the local drain short and complete.
		p.finalizeChannel(c)
		relComp()
		return
	}
	if c.relPeer {
		return // passive drain already running; RELCOMP follows when done
	}
	c.relPeer = true
	p.beginClosing(c)
	p.afterDrained(c, func() {
		// Finalize before answering: the instant RELEASE-COMPLETE reaches
		// the peer it may reuse this channel ID for a fresh SETUP, and that
		// SETUP must not find the old entry still in the table (a REJECT
		// busy on a correctly closed ID). A lost RELCOMP is already covered
		// by the idempotent not-found branch above when RELEASE retries.
		p.finalizeChannel(c)
		relComp()
	})
}

func (p *Proc) onRelComp(from ProcID, id ChannelID) {
	p.chanMu.RLock()
	c, ok := p.channels[chanKey{peer: from, id: id}]
	p.chanMu.RUnlock()
	if !ok || c.closedDone || !c.relSent {
		return
	}
	p.finalizeChannel(c)
}

// finalizeChannel is the terminal transition: the channel leaves the
// proc's table, its lane-scheduler and flush-wheel state detaches, queued
// sends fail with ChannelClosedError, the VC route unbinds, and the
// admission slot returns. Idempotent; scheduler domain.
func (p *Proc) finalizeChannel(c *Channel) {
	if c == nil || c.closedDone {
		return
	}
	ln := c.lockLane()
	if c.state.Load() == chanClosed {
		ln.mu.Unlock()
		return
	}
	c.flushCtrl()
	c.state.Store(chanClosed)
	c.closed = true
	c.flow.shutdown()
	c.errc.shutdown()
	ln.detachChanLocked(c)
	ln.serviceLocked()
	ln.mu.Unlock()
	ln.runDrain()
	p.chanMu.Lock()
	delete(p.channels, chanKey{peer: c.peer, id: c.id})
	p.chanMu.Unlock()
	if c.everOpen {
		p.statClosed.Add(1)
	}
	p.unbindVC(c)
	if c.sigAdmitted {
		c.sigAdmitted = false
		if p.cfg.Admission != nil {
			p.cfg.Admission.Release(c.peer)
		}
	}
	c.closedDone = true
	for _, mt := range c.closeWaiters {
		p.wakeIfIdle(mt, "ncs close")
	}
	c.closeWaiters = nil
	p.checkShutdownWake()
}

// bindVC / unbindVC install and remove the channel's per-call VC route in
// the carrier, when the carrier routes per call (transport.ChannelRouter).
// The balance counters tick regardless, so leak accounting is uniform
// across carriers.
func (p *Proc) bindVC(c *Channel) {
	if c.vcBound {
		return
	}
	c.vcBound = true
	p.statVCBound.Add(1)
	if cr, ok := p.cfg.Endpoint.(transport.ChannelRouter); ok {
		cr.BindChannel(c.peer, c.id)
	}
}

func (p *Proc) unbindVC(c *Channel) {
	if !c.vcBound {
		return
	}
	c.vcBound = false
	p.statVCRel.Add(1)
	if cr, ok := p.cfg.Endpoint.(transport.ChannelRouter); ok {
		cr.UnbindChannel(c.peer, c.id)
	}
}

// armIdleTeardown starts the idle-channel reaper chain: when
// Config.SigIdleTimeout (or the call's CallConfig.IdleTimeout override,
// carried in the SETUP so both ends agree) is set and a signaled channel
// moves no traffic for a full period, this end closes it — the survival
// path against a peer that crashed after CONNECT. The chain re-arms only
// while the channel is OPEN and the proc is running, so it cannot keep a
// virtual-time engine alive.
func (p *Proc) armIdleTeardown(c *Channel) {
	idle := p.cfg.SigIdleTimeout
	if c.idleOver != 0 {
		idle = c.idleOver
	}
	if idle <= 0 {
		return
	}
	last := c.sent.Load() + c.received.Load()
	var tick func()
	tick = func() {
		if p.closing.Load() || c.closedDone || c.state.Load() != chanOpen {
			return
		}
		cur := c.sent.Load() + c.received.Load()
		if cur == last {
			p.startClose(c, CauseTimeout)
			return
		}
		last = cur
		p.cfg.After(idle, tick)
	}
	p.cfg.After(idle, tick)
}

// ---------------------------------------------------------------------------
// Balance counters

// LifecycleStats is the proc's signaled-lifecycle ledger: paired counters
// that must balance at quiesce (opened/closed, bound/released,
// armed/fired, pushed/drained) plus the setup funnel a churn scenario
// measures (sent/accepted/rejected/retries).
type LifecycleStats struct {
	// Opened counts channels that reached OPEN on this end (both roles);
	// Closed counts those that reached CLOSED after being open.
	Opened, Closed int64
	// The setup funnel, caller side (SetupsSent includes retries) and
	// callee side (accepted/rejected).
	SetupsSent, SetupsAccepted, SetupsRejected, SetupRetries int64
	// VCsBound / VCsReleased count per-call VC route installs/removals.
	VCsBound, VCsReleased int64
	// TimersArmed / TimersFired count every Config.After scheduling and
	// firing (VirtualTime procs only; zero in real mode).
	TimersArmed, TimersFired int64
	// RingPushed / RingDrained count lane MPSC ring entries.
	RingPushed, RingDrained int64
	// LateCtrl counts control frames that arrived for a channel already
	// finalized (dropped; cumulative control is supersede-safe).
	LateCtrl int64
}

// Lifecycle snapshots the proc's lifecycle counters.
func (p *Proc) Lifecycle() LifecycleStats {
	return LifecycleStats{
		Opened:         p.statOpened.Load(),
		Closed:         p.statClosed.Load(),
		SetupsSent:     p.statSetupsSent.Load(),
		SetupsAccepted: p.statSetupsAccepted.Load(),
		SetupsRejected: p.statSetupsRejected.Load(),
		SetupRetries:   p.statSetupRetries.Load(),
		VCsBound:       p.statVCBound.Load(),
		VCsReleased:    p.statVCRel.Load(),
		TimersArmed:    p.statTimersArmed.Load(),
		TimersFired:    p.statTimersFired.Load(),
		RingPushed:     p.statRingPush.Load(),
		RingDrained:    p.statRingDrain.Load(),
		LateCtrl:       p.statLateCtrl.Load(),
	}
}

// Leaks reports every unbalanced lifecycle counter at quiesce (empty =
// nothing leaked). The timer and ring balances are asserted only under
// VirtualTime, where quiesce is exact: a real-mode proc may legitimately
// hold armed wall-clock timers and in-transit ring entries at any sampling
// instant.
func (p *Proc) Leaks() []string {
	var leaks []string
	st := p.Lifecycle()
	if st.Opened != st.Closed {
		leaks = append(leaks, fmt.Sprintf("channels opened %d != closed %d", st.Opened, st.Closed))
	}
	if st.VCsBound != st.VCsReleased {
		leaks = append(leaks, fmt.Sprintf("VCs bound %d != released %d", st.VCsBound, st.VCsReleased))
	}
	if p.cfg.VirtualTime {
		if st.TimersArmed != st.TimersFired {
			leaks = append(leaks, fmt.Sprintf("timers armed %d != fired %d", st.TimersArmed, st.TimersFired))
		}
		if st.RingPushed != st.RingDrained {
			leaks = append(leaks, fmt.Sprintf("ring entries pushed %d != drained %d", st.RingPushed, st.RingDrained))
		}
	}
	for _, c := range p.channelsOrdered() {
		if c.sigRef != 0 && !c.closedDone {
			leaks = append(leaks, fmt.Sprintf("signaled channel %d to proc %d still open", c.id, c.peer))
		}
	}
	return leaks
}
