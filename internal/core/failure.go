package core

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// This file is the failure domain: detection, teardown, and recovery when a
// peer process crashes or the network partitions — the cases frame-loss
// chaos never exercises, where every retransmission is futile and a blocked
// caller would otherwise park forever.
//
//   - Detection: a heartbeat failure detector (Config.Heartbeat) rides the
//     channel-0 signaling band. Every Interval the proc pings each peer it
//     has channels to; a peer silent for Misses consecutive intervals is
//     declared DEAD. All timers ride Config.After, so detection is
//     deterministic under a VirtualTime mesh.
//   - Teardown: peerDead force-closes every channel to the dead peer
//     through the existing finalize machinery — parked sends fail, blocked
//     Recv/RecvInto/recvAnyOf waiters (and with them in-flight collectives)
//     unblock, error-control windows abandon instead of retransmitting into
//     the void, VC routes and admission slots release — all with the typed
//     *PeerDeadError, and Proc.Leaks() still balances to zero.
//   - Recovery: Proc.Redial retries OpenCall with capped exponential
//     backoff and deterministic jitter under a cause-aware policy, so an
//     application survives a peer restart or a healed partition.

// tagSigBeat extends the signaling tag space (signal.go) with the
// heartbeat: a one-word frame on channel 0, word 0 = ping, 1 = ack.
const tagSigBeat = -11

// Heartbeat configures the failure detector (Config.Heartbeat).
type Heartbeat struct {
	// Interval is the beat period; 0 disables detection entirely.
	Interval time.Duration
	// Misses is how many consecutive silent intervals declare a peer dead;
	// 0 selects DefaultHeartbeatMisses. Worst-case detection latency is
	// (Misses+1)×Interval of scheduler time: one interval of grace for the
	// first observation plus Misses silent ones.
	Misses int
}

// DefaultHeartbeatMisses is the miss budget when Heartbeat.Misses is zero.
const DefaultHeartbeatMisses = 3

// PeerDeadError is the typed failure the detector attaches to everything it
// tears down: failed sends, woken receivers, aborted call setups.
type PeerDeadError struct {
	Local, Peer ProcID
	// Missed is how many beat intervals went silent; Elapsed how long ago
	// the peer was last heard (scheduler time).
	Missed  int
	Elapsed time.Duration
}

func (e *PeerDeadError) Error() string {
	return fmt.Sprintf("core(proc %d): peer %d dead (%d beats missed, silent %v)",
		e.Local, e.Peer, e.Missed, e.Elapsed)
}

// hbPeer is one monitored peer's detector state (scheduler domain).
type hbPeer struct {
	heard     bool
	misses    int
	lastHeard time.Duration
}

// markFail records a failure-domain decision on the proc's trace timeline
// (no-op without a Tracer): beats missed, peers declared dead, channels
// force-closed, redial attempts.
func (p *Proc) markFail(label string) {
	if p.cfg.Tracer != nil {
		p.cfg.Tracer.Mark(p.cfg.TraceName+"/fail", label)
	}
}

// startHeartbeat arms the proc-wide beat chain: one self-rescheduling timer
// serves every monitored peer, so a proc with 255 channels costs one armed
// timer per interval, not 255. Called from New; the chain stops re-arming
// once the proc is closing, so a virtual-time engine can quiesce.
func (p *Proc) startHeartbeat() {
	hb := p.cfg.Heartbeat
	if hb.Interval <= 0 {
		return
	}
	p.hbMisses = hb.Misses
	if p.hbMisses <= 0 {
		p.hbMisses = DefaultHeartbeatMisses
	}
	p.hbPeers = make(map[ProcID]*hbPeer)
	var tick func()
	tick = func() {
		if p.closing.Load() {
			return
		}
		p.heartbeatTick()
		p.cfg.After(hb.Interval, tick)
	}
	p.cfg.After(hb.Interval, tick)
}

// heartbeatTick is one detector pass: for every peer this proc currently
// has a channel to, check whether a beat (or beat ack) arrived since the
// last pass, count the miss otherwise, and declare the peer dead past the
// budget. A peer's first observation is all grace — monitoring starts with
// heard=true — so a freshly opened channel is never charged for silence
// that predates it.
func (p *Proc) heartbeatTick() {
	now := time.Duration(p.cfg.RT.Now())
	var last ProcID
	first := true
	for _, c := range p.channelsOrdered() {
		peer := c.peer
		if !first && peer == last {
			continue // one beat per peer, not per channel
		}
		first, last = false, peer
		if peer == p.cfg.ID {
			continue
		}
		if _, dead := p.deadPeers[peer]; dead {
			continue
		}
		hp := p.hbPeers[peer]
		if hp == nil {
			hp = &hbPeer{heard: true, lastHeard: now}
			p.hbPeers[peer] = hp
		}
		if hp.heard {
			hp.heard = false
			hp.misses = 0
			hp.lastHeard = now
		} else {
			hp.misses++
			p.markFail(fmt.Sprintf("beat-miss p%d n%d", peer, hp.misses))
			if hp.misses >= p.hbMisses {
				p.peerDead(peer, &PeerDeadError{
					Local: p.cfg.ID, Peer: peer,
					Missed: hp.misses, Elapsed: now - hp.lastHeard,
				})
				continue
			}
		}
		p.sendBeat(peer, 0)
	}
}

// sendBeat queues one heartbeat frame (word 0 = ping, 1 = ack) on the
// channel-0 control level toward the peer — the same route signaling takes
// (sendSigMsg), minus the marshalled SigMessage a beat doesn't need.
func (p *Proc) sendBeat(to ProcID, word uint32) {
	p.sendCtrl(to, tagSigBeat, nil, word)
}

// onBeat consumes one arriving heartbeat frame (scheduler domain, routed by
// onSigMsg). Any beat — ping or ack — proves the peer alive; pings are
// echoed unconditionally, so detection works even when only one side runs a
// detector, and acks are never re-echoed.
func (p *Proc) onBeat(from ProcID, word uint32) {
	if hp := p.hbPeers[from]; hp != nil {
		hp.heard = true
	}
	if word == 0 && !p.closing.Load() {
		p.sendBeat(from, 1)
	}
}

// PeerDead returns the death record for peer, or nil while the peer is
// considered alive. Call from a thread of this process (scheduler domain).
func (p *Proc) PeerDead(peer ProcID) *PeerDeadError { return p.deadPeers[peer] }

// peerDead is the fail-fast teardown sweep: record the death, abort
// outstanding call setups toward the peer, force-close every channel to it
// through finalizeChannel (parked and future sends fail with the typed
// error, error-control windows abandon, VC routes and admission slots
// release), and fail every receive waiter that can now never match.
// Scheduler domain; idempotent.
func (p *Proc) peerDead(peer ProcID, err *PeerDeadError) {
	if _, dead := p.deadPeers[peer]; dead {
		return
	}
	if p.deadPeers == nil {
		p.deadPeers = make(map[ProcID]*PeerDeadError)
	}
	p.deadPeers[peer] = err
	p.markFail(fmt.Sprintf("peer-dead p%d", peer))
	// Outstanding SETUPs toward the peer fail now instead of burning their
	// whole retry budget. Refs are sorted: map iteration order must never
	// reach the timeline (determinism contract).
	var refs []uint32
	for ref, call := range p.sigCalls {
		if call.peer == peer && call.state == sigCalling {
			refs = append(refs, ref)
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	for _, ref := range refs {
		call := p.sigCalls[ref]
		call.state = sigFailed
		call.cause = CausePeerDead
		delete(p.sigCalls, ref)
		call.ch.deadErr = err
		p.finalizeChannel(call.ch)
		p.wakeIfIdle(call.caller, "ncs call")
	}
	// Force-close every channel to the peer, static and signaled alike.
	// deadErr and the abandon happen under the lane lock (with the state
	// bumped so lane engines admit nothing more); finalizeChannel then runs
	// the ordinary teardown, which fails everything still queued with the
	// channel's sendFailErr — now the typed death.
	for _, c := range p.channelsOrdered() {
		if c.peer != peer {
			continue
		}
		p.markFail(fmt.Sprintf("force-close ch%d>%d", c.id, peer))
		ln := c.lockLane()
		c.deadErr = err
		if c.state.Load() < chanClosing {
			c.state.Store(chanClosing)
		}
		c.errc.abandon()
		ln.mu.Unlock()
		p.finalizeChannel(c)
	}
	p.failDeadWaiters()
	p.checkShutdownWake()
}

// failDeadWaiters sweeps the parked receive waiters and fails every one
// whose pattern can only ever match dead peers: a single-source waiter on a
// dead proc, or an any-of waiter whose whole set is dead. Woken waiters see
// w.err and re-raise it in recvMsgOn/recvAnyOf. In-place filter, scheduler
// domain: no timer can interleave between a waiter's append and its park.
func (p *Proc) failDeadWaiters() {
	if len(p.waiters) == 0 || len(p.deadPeers) == 0 {
		return
	}
	ws := p.waiters
	kept := ws[:0]
	for _, w := range ws {
		var err *PeerDeadError
		if w.multi == nil {
			if w.fromProc != ProcID(Any) {
				err = p.deadPeers[w.fromProc]
			}
		} else if len(w.multi) > 0 {
			err = p.deadPeers[w.multi[0].Proc]
			for _, a := range w.multi[1:] {
				if err == nil {
					break
				}
				if p.deadPeers[a.Proc] == nil {
					err = nil
				}
			}
		}
		if err == nil {
			kept = append(kept, w)
			continue
		}
		w.err = err
		p.wakeIfIdle(w.t.mt, "ncs recv")
	}
	for i := len(kept); i < len(ws); i++ {
		ws[i] = nil
	}
	p.waiters = kept
}

// deadRecvErr reports the death record dooming a receive pattern before it
// parks: a single-source pattern on a dead peer, or an any-of set entirely
// dead. nil when the pattern can still complete.
func (p *Proc) deadRecvErr(fromProc ProcID, set []Addr) *PeerDeadError {
	if len(p.deadPeers) == 0 {
		return nil
	}
	if set == nil {
		if fromProc == ProcID(Any) {
			return nil
		}
		return p.deadPeers[fromProc]
	}
	if len(set) == 0 {
		return nil
	}
	err := p.deadPeers[set[0].Proc]
	for _, a := range set[1:] {
		if err == nil {
			return nil
		}
		if p.deadPeers[a.Proc] == nil {
			return nil
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Recovery: Redial

// Redial defaults.
const (
	DefaultRedialAttempts = 5
	DefaultRedialBase     = time.Millisecond
)

// RedialPolicy parameterizes Proc.Redial: how many OpenCall attempts to
// spend, how the backoff between them grows, and which failures are worth
// retrying at all.
type RedialPolicy struct {
	// Attempts bounds total OpenCall attempts (0 selects
	// DefaultRedialAttempts).
	Attempts int
	// Base is the backoff before the first retry (0 selects
	// DefaultRedialBase); it doubles per retry, capped at Max (0 selects
	// 64×Base). A deterministic per-(proc, peer, attempt) jitter spreads
	// synchronized redialers.
	Base time.Duration
	Max  time.Duration
	// Retry judges whether an attempt's error merits another try; nil
	// selects DefaultRedialRetry.
	Retry func(error) bool
}

// DefaultRedialRetry is the cause-aware policy table: peer death and the
// transient signaling causes (timeout, busy, admission pressure, peer
// shutting down) are worth retrying — the peer may restart, the partition
// heal, the load pass. CauseUnsupported is permanent: the callee will never
// accept this QoS, so retrying is futile.
func DefaultRedialRetry(err error) bool {
	var pd *PeerDeadError
	if errors.As(err, &pd) {
		return true
	}
	var oe *OpenError
	if errors.As(err, &oe) {
		switch oe.Cause {
		case CauseTimeout, CauseBusy, CauseAdmissionDenied, CausePeerClosed, CausePeerDead:
			return true
		}
	}
	return false
}

// Redial opens a signaled channel to peer like OpenCall, but retries
// retriable failures under pol with capped exponential backoff and
// deterministic jitter — the application-level survival path after a peer
// restart or a healed partition. Each attempt starts the failure detector's
// view of the peer over (OpenCall clears the death record), so a recovered
// peer is re-observed with a fresh grace period. Call from a running thread
// of this process.
func (p *Proc) Redial(t *Thread, peer ProcID, cfg CallConfig, pol RedialPolicy) (*Channel, error) {
	attempts := pol.Attempts
	if attempts <= 0 {
		attempts = DefaultRedialAttempts
	}
	base := pol.Base
	if base <= 0 {
		base = DefaultRedialBase
	}
	maxB := pol.Max
	if maxB <= 0 {
		maxB = 64 * base
	}
	retry := pol.Retry
	if retry == nil {
		retry = DefaultRedialRetry
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := base << (attempt - 1)
			if d > maxB || d <= 0 {
				d = maxB
			}
			d += sigJitter(uint32(p.cfg.ID), uint32(peer), uint32(attempt), d/2)
			p.markFail(fmt.Sprintf("redial p%d #%d", peer, attempt))
			p.cfg.After(d, func() { p.wakeIfIdle(t.mt, "ncs redial") })
			t.mt.Park("ncs redial")
		}
		c, err := p.OpenCall(t, peer, cfg)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if !retry(err) {
			return nil, err
		}
	}
	return nil, lastErr
}
