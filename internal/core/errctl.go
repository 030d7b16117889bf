package core

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrorControl is the pluggable error-control discipline (the paper's error
// control thread, selected by NCS_init's second argument). Approach 1 needs
// none — p4/TCP is reliable — so NoErrorControl is the default; GoBackN
// provides reliability over lossy transports (the Mem transport's fault
// injection, or a raw ATM VC without SSCOP). Like FlowControl, one
// instance serves one Channel: sequence numbers, windows, and timers are
// per-channel state, so loss on a bulk channel never stalls or reorders a
// stream channel sharing the process pair.
//
// Admission is non-blocking: a full retransmission window defers the
// request instead of parking the send system thread, which must stay free
// to carry retransmissions and acknowledgements.
type ErrorControl interface {
	// Name identifies the discipline.
	Name() string
	// fork returns a fresh, unbound instance with the same parameters.
	fork() ErrorControl
	init(c *Channel)
	// admit either stamps and buffers m for transmission (true) or takes
	// ownership of the request for deferred re-enqueue (false).
	admit(req *sendReq) bool
	// onData inspects an arriving data message; it returns false to
	// suppress delivery (duplicate or out-of-order under go-back-N).
	onData(m *transport.Message) bool
	// onControl consumes this discipline's control messages (acks).
	onControl(m *transport.Message)
	// onAck consumes one acknowledgement word, whether it arrived in a
	// standalone control frame (onControl routes each payload word here)
	// or piggybacked on a reverse-direction data frame. Its meaning is
	// discipline-defined: cumulative under go-back-N, selective under
	// selective repeat.
	onAck(v uint32)
	// pending reports in-flight messages still awaiting acknowledgement;
	// the process's system threads stay alive while it is non-zero.
	pending() int
	// queued reports admission-deferred requests the discipline is holding
	// — data that will re-emerge, which the flush wheel treats as an
	// imminent piggyback ride.
	queued() int
	// shutdown fails admission-deferred requests (their callers unblock)
	// but leaves the in-flight window draining: already-admitted data
	// still flushes, timers and all. Idempotent.
	shutdown()
	// abandon drops the in-flight window without retransmission: the peer
	// is dead, so nothing unacked will ever be acknowledged and retrying
	// only burns timers. Deferred requests are left for shutdown to fail.
	// Idempotent.
	abandon()
}

// NoErrorControl trusts the transport.
type NoErrorControl struct{}

// Name implements ErrorControl.
func (NoErrorControl) Name() string                   { return "none" }
func (NoErrorControl) fork() ErrorControl             { return NoErrorControl{} }
func (NoErrorControl) init(*Channel)                  {}
func (NoErrorControl) admit(*sendReq) bool            { return true }
func (NoErrorControl) onData(*transport.Message) bool { return true }
func (NoErrorControl) onControl(*transport.Message)   {}
func (NoErrorControl) onAck(uint32)                   {}
func (NoErrorControl) pending() int                   { return 0 }
func (NoErrorControl) queued() int                    { return 0 }
func (NoErrorControl) shutdown()                      {}
func (NoErrorControl) abandon()                       {}

// GoBackN is sliding-window ARQ with cumulative acks and a retransmission
// timer, per channel. ESeq numbers start at 1; an ack carries the highest
// in-order sequence received.
type GoBackN struct {
	// Window bounds in-flight messages on the channel.
	Window int
	// Timeout is the retransmission timer.
	Timeout time.Duration
	// MaxRetries bounds consecutive timer firings without window progress;
	// past it the stuck window is abandoned (best-effort delivery to a
	// dead peer). Defaults to 25.
	MaxRetries int

	p  *Proc
	ch *Channel

	// Sender side.
	nextSeq  uint32               // next ESeq to assign
	base     uint32               // oldest unacked
	unacked  []*transport.Message // in-flight copies, base..nextSeq-1
	deferred []*sendReq           // admission-deferred requests
	timerOn  bool
	// stall counts timer firings without base progress; MaxRetries bounds
	// it so a dead peer cannot keep the process alive forever.
	stall int

	// Receiver side.
	expected uint32

	// fireFn is the pre-bound, lane-wrapped timer callback, so each re-arm
	// schedules without a fresh closure.
	fireFn func()

	retrans   int64
	abandoned int64
}

// NewGoBackN returns a go-back-N discipline.
func NewGoBackN(window int, timeout time.Duration) *GoBackN {
	if window < 1 || timeout <= 0 {
		panic("core: go-back-N needs window >= 1 and positive timeout")
	}
	return &GoBackN{Window: window, Timeout: timeout, MaxRetries: 25}
}

// Name implements ErrorControl.
func (g *GoBackN) Name() string { return "go-back-n" }

func (g *GoBackN) fork() ErrorControl {
	f := NewGoBackN(g.Window, g.Timeout)
	f.MaxRetries = g.MaxRetries
	return f
}

// Retransmissions returns how many copies were re-sent; for tests and
// experiment reporting.
func (g *GoBackN) Retransmissions() int64 {
	g.ch.laneLock()
	defer g.ch.laneUnlock()
	return g.retrans
}

// Abandoned returns how many messages were given up on (dead peer).
func (g *GoBackN) Abandoned() int64 {
	g.ch.laneLock()
	defer g.ch.laneUnlock()
	return g.abandoned
}

func (g *GoBackN) init(c *Channel) {
	if g.ch != nil {
		panic("core: ErrorControl instance bound to two channels; pass a fresh instance per channel")
	}
	g.ch = c
	g.p = c.p
	g.nextSeq = 1
	g.base = 1
	g.expected = 1
	g.fireFn = c.wrapTimer(g.timerFire)
}

func (g *GoBackN) admit(req *sendReq) bool {
	if g.nextSeq-g.base >= uint32(g.Window) {
		g.deferred = append(g.deferred, req)
		return false
	}
	req.m.ESeq = g.nextSeq
	g.nextSeq++
	// Buffer a private copy for retransmission. The payload bytes are
	// copied too: Send's contract lets the caller reuse its buffer the
	// moment the first transmission is serialized, and collective hot
	// paths (BcastInto, Gather's pack buffer) do exactly that — an aliased
	// retransmission would carry the *next* operation's bytes under the
	// old sequence number. The copy is the price of reliability on this
	// channel; channels without error control pay nothing.
	cp := *req.m
	cp.Data = append([]byte(nil), req.m.Data...)
	g.unacked = append(g.unacked, &cp)
	g.armTimer()
	return true
}

func (g *GoBackN) armTimer() {
	if g.timerOn {
		return
	}
	g.timerOn = true
	g.p.cfg.After(g.Timeout, g.fireFn)
}

func (g *GoBackN) timerFire() {
	g.timerOn = false
	if len(g.unacked) == 0 {
		return
	}
	g.stall++
	if g.stall > g.MaxRetries {
		// The peer looks dead: abandon the window so the process can
		// terminate instead of retransmitting forever. Deferred requests
		// flow out best-effort through the now-open window.
		gaveUp := len(g.unacked)
		g.abandoned += int64(gaveUp)
		g.base = g.nextSeq
		g.unacked = nil
		g.releaseDeferred()
		g.ch.raise(fmt.Errorf("go-back-N: gave up on %d messages to proc %d (channel %d)", gaveUp, g.ch.peer, g.ch.id))
		g.p.checkShutdownWake()
		return
	}
	// Go-back-N: re-queue every unacked message through the send thread,
	// bypassing admission so the original sequence numbers are preserved.
	for _, m := range g.unacked {
		cp := *m
		g.retrans++
		req := g.ch.ln.getReq()
		req.m = &cp
		req.ch = g.ch
		req.raw = true
		g.ch.enqueue(req)
	}
	g.armTimer()
}

func (g *GoBackN) onData(m *transport.Message) bool {
	if m.ESeq == 0 {
		// Peer not running error control (mixed configuration): accept.
		return true
	}
	switch {
	case m.ESeq == g.expected:
		g.expected++
		g.sendAck(g.expected - 1)
		return true
	case wire.SeqNewer(g.expected, m.ESeq):
		// Duplicate: re-ack so the sender's window slides. The frame will
		// never be read, so its pooled buffer recycles here.
		g.sendAck(g.expected - 1)
		m.Release()
		return false
	default:
		// Gap: discard and re-ack the last in-order sequence.
		g.sendAck(g.expected - 1)
		m.Release()
		return false
	}
}

// sendAck queues the cumulative ack for piggybacking on reverse data (or
// the channel's flush timer): being cumulative, a newer value simply
// supersedes a queued one, so a burst of arrivals costs one ack frame.
func (g *GoBackN) sendAck(upTo uint32) {
	g.ch.queueAck(upTo, true)
}

func (g *GoBackN) onControl(m *transport.Message) {
	forEachCtrlWord(m, g.onAck)
}

// onAck slides the window up to a cumulative ack, standalone or
// piggybacked. Comparisons are wrap-safe (wire.SeqNewer), like the flow
// tier's credit advertisements.
func (g *GoBackN) onAck(acked uint32) {
	progressed := false
	for len(g.unacked) > 0 && !wire.SeqNewer(g.unacked[0].ESeq, acked) {
		g.unacked = g.unacked[1:]
		g.base++
		progressed = true
	}
	if progressed {
		g.stall = 0
		g.releaseDeferred()
		g.p.checkShutdownWake()
	}
}

// releaseDeferred re-enqueues admission-deferred requests while window
// space is available.
func (g *GoBackN) releaseDeferred() {
	for len(g.deferred) > 0 && g.nextSeq-g.base < uint32(g.Window) {
		req := g.deferred[0]
		g.deferred = g.deferred[1:]
		g.ch.enqueue(req)
	}
}

func (g *GoBackN) pending() int { return len(g.unacked) }
func (g *GoBackN) queued() int  { return len(g.deferred) }

// shutdown fails deferred requests so a Send gated on window space cannot
// hang across Channel.Close. The unacked window keeps retransmitting —
// admitted data still flushes (pending() holds the system threads alive),
// bounded by MaxRetries if the peer is gone.
func (g *GoBackN) shutdown() {
	reqs := g.deferred
	g.deferred = nil
	g.ch.failGated(reqs, "go-back-N")
}

// abandon drops the unacked window: the peer is dead, retransmitting is
// futile. A pending timer self-cancels on fire (empty window re-arms
// nothing).
func (g *GoBackN) abandon() {
	g.abandoned += int64(len(g.unacked))
	g.base = g.nextSeq
	g.unacked = nil
}
