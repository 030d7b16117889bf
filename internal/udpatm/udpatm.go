// Package udpatm is the real-mode ATM emulation: NCS messages are chunked
// into AAL5 CPCS-PDUs, segmented into genuine 53-octet ATM cells
// (internal/atm), and carried between processes in UDP datagrams on the
// loopback interface. A datagram's payload is cells laid end to end: one
// AAL5 frame when traffic is sparse, or a *cell train* — consecutive
// queued frames of the same VC coalesced up to the emulated MTU — when a
// burst is in flight, so a burst costs one syscall per train instead of
// one per frame (AAL5 end-of-frame cells delimit the frames inside).
//
// This substitutes for the paper's FORE SBA-200 + ATM switch fabric: the
// cell framing, HEC protection, per-VC reassembly and CRC-32 verification
// all execute exactly as they would on the adapter; only the physical
// layer is a UDP socket instead of a TAXI transceiver. Chunk framing and
// message reassembly are delegated to internal/wire, and the send path
// runs entirely on pooled buffers recycled once the kernel has copied each
// datagram.
package udpatm

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/atm"
	"repro/internal/list"
	"repro/internal/mts"
	"repro/internal/transport"
	"repro/internal/wire"
)

// VCFor mirrors internal/netsim's conventional VC numbering so traces from
// both fabrics read the same: VPI 0, VCI = 64 + src*256 + dst.
func VCFor(src, dst transport.ProcID) atm.VC {
	return atm.VC{VPI: 0, VCI: uint16(64 + int(src)*256 + int(dst))}
}

// VCForChan maps an NCS channel onto its own VC, mirroring
// netsim.VCForChan: the channel ID becomes the VPI over the same VCI mesh.
// Channel 0 is identical to VCFor.
func VCForChan(src, dst transport.ProcID, ch wire.ChannelID) atm.VC {
	return atm.VC{VPI: uint8(ch), VCI: uint16(64 + int(src)*256 + int(dst))}
}

// MaxChunk is the message payload carried per AAL5 frame. The frame's
// cells (MaxChunk/48 · 53 bytes ≈ 9 KB) stay well under the UDP datagram
// limit.
const MaxChunk = 8192 - wire.ChunkHeaderSize

// MaxMessage is the largest marshalled message one Send can carry:
// wire.MaxChunks chunks of MaxChunk bytes (about 512 MiB). The chunk index
// is 16 bits, so a longer message would wrap it.
const MaxMessage = wire.MaxChunks * MaxChunk

// ErrTooLarge reports a message whose marshalled form exceeds MaxMessage.
var ErrTooLarge = errors.New("udpatm: message needs more than 65536 chunks")

// checkSize refuses a marshalled length the chunk index cannot number.
func checkSize(wireLen int) error {
	if wireLen > MaxMessage {
		return fmt.Errorf("%w: %d bytes marshalled, limit %d", ErrTooLarge, wireLen, MaxMessage)
	}
	return nil
}

// Network is a mesh of UDP endpoints on loopback.
type Network struct {
	mu        sync.Mutex
	endpoints map[transport.ProcID]*Endpoint
}

// NewNetwork returns an empty mesh.
func NewNetwork() *Network {
	return &Network{endpoints: make(map[transport.ProcID]*Endpoint)}
}

// vcTx is one VC's transmit queue: AAL5 frames (each one UDP datagram)
// awaiting the writer, the VC's drain priority, and the optional GCRA
// policer enforcing the VC's traffic contract at the emulated UNI.
type vcTx struct {
	vc   atm.VC
	prio int
	gcra *atm.GCRA
	dst  *net.UDPAddr

	frames list.FIFO[*wire.Buf]

	cellsSent int64
	policed   int64
}

// Endpoint is one process's ATM-over-UDP attachment.
type Endpoint struct {
	net  *Network
	proc transport.ProcID
	rt   *mts.Runtime
	conn *net.UDPConn

	mu      sync.Mutex
	handler transport.Handler
	seq     uint32

	// Transmit side: per-VC queues drained by a single writer goroutine,
	// highest priority first (FIFO within a VC). NCS channels map onto
	// VCs (channel ID = VPI), so a channel's priority and traffic
	// contract are enforced here, at the cell layer. Send blocks once
	// maxQueuedFrames are outstanding (spaceCond) — the backpressure the
	// old synchronous write loop provided implicitly — and Close drains
	// the queues before closing the socket (writerDone).
	txMu       sync.Mutex
	txCond     *sync.Cond // work available
	spaceCond  *sync.Cond // queue space available
	queues     []*vcTx    // creation order; stable tie-break for equal priority
	txByVC     map[atm.VC]*vcTx
	queued     int // frames across all VC queues
	txClosed   bool
	writerDone chan struct{}
	epoch      time.Time // GCRA clock origin
	// linkClock emulates the cell clock of the physical link a real
	// adapter would pace cells onto (nominal TAXI rate): it advances one
	// cell time per transmitted cell, and GCRA conformance is judged at
	// each cell's modeled departure — not at the datagram burst instant —
	// mirroring nic.SimATM. Touched only by the writer goroutine.
	linkClock time.Duration

	// Receive-side state, touched only by the reader goroutine: per-VC
	// cell reassembly (AAL5 frames) feeding per-VC chunk assembly
	// (messages). Both tiers reuse grow-once buffers. Entries exist only
	// for VCs a registered peer's channel to this endpoint rides (see
	// knownVC), so both maps stay within known peers × 256 channels.
	reasm map[atm.VC]*atm.Reassembler
	asm   map[atm.VC]*wire.Assembler

	// Receive-side fault injection (guarded by mu): each arriving datagram
	// — one AAL5 frame, data or control alike — is dropped independently
	// with rxDropRate probability from the seeded generator, emulating a
	// lossy fabric beyond what GCRA policing at the UNI produces. Chaos
	// tests use it to prove NCS flow/error control recover end to end.
	rxDropRate float64
	rxDropRNG  *rand.Rand
	rxDropped  int64
	// blackhole, while set, drops every arriving frame (SetBlackhole).
	blackhole bool

	cellsSent int64 // guarded by txMu (writer updates, accessors read)
	cellsRecv int64
	badCells  int64

	// Cell-train accounting (guarded by txMu): datagrams that carried more
	// than one AAL5 frame, the total frames they carried, and the largest
	// train in cells.
	trains      int64
	trainFrames int64
	maxTrain    int64

	closed chan struct{}
}

// Attach creates an endpoint for proc bound to an ephemeral loopback port.
// Deliveries are Posted into rt's scheduler domain.
func (n *Network) Attach(proc transport.ProcID, rt *mts.Runtime) (*Endpoint, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("udpatm: listen: %w", err)
	}
	// A large message bursts its AAL5 frames back to back (a 1 MB send is
	// ~130 × 9 KB datagrams); size the socket buffers so the kernel can
	// absorb the burst instead of silently dropping frames. The kernel
	// caps these at net.core.{r,w}mem_max — beyond that the fabric is
	// genuinely lossy, which is what NCS error control exists for.
	conn.SetReadBuffer(8 << 20)
	conn.SetWriteBuffer(4 << 20)
	e := &Endpoint{
		net:        n,
		proc:       proc,
		rt:         rt,
		conn:       conn,
		txByVC:     make(map[atm.VC]*vcTx),
		writerDone: make(chan struct{}),
		epoch:      time.Now(),
		reasm:      make(map[atm.VC]*atm.Reassembler),
		asm:        make(map[atm.VC]*wire.Assembler),
		closed:     make(chan struct{}),
	}
	e.txCond = sync.NewCond(&e.txMu)
	e.spaceCond = sync.NewCond(&e.txMu)
	n.mu.Lock()
	if _, dup := n.endpoints[proc]; dup {
		n.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("udpatm: duplicate proc %d", proc)
	}
	n.endpoints[proc] = e
	n.mu.Unlock()
	go e.readLoop()
	go e.writeLoop()
	return e, nil
}

// Close shuts the endpoint's socket and reader down.
func (e *Endpoint) Close() error {
	select {
	case <-e.closed:
		return nil
	default:
	}
	close(e.closed)
	e.txMu.Lock()
	e.txClosed = true
	e.txCond.Broadcast()
	e.spaceCond.Broadcast()
	e.txMu.Unlock()
	// Drain before closing the socket: every frame Send accepted is
	// written (the guarantee the old synchronous write loop gave).
	<-e.writerDone
	return e.conn.Close()
}

// Proc implements transport.Endpoint.
func (e *Endpoint) Proc() transport.ProcID { return e.proc }

// SetHandler implements transport.Endpoint.
func (e *Endpoint) SetHandler(h transport.Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// SetRecvDropRate makes the endpoint drop each arriving AAL5 frame (one
// UDP datagram) independently with the given probability, using a
// deterministic seed; rate 0 disables loss. Loss is frame-level and
// class-blind — data, credits, and acks all die alike, which is exactly
// the regime the cumulative-credit flow protocol and the error-control
// tier exist to survive.
func (e *Endpoint) SetRecvDropRate(rate float64, seed int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rxDropRate = rate
	e.rxDropRNG = rand.New(rand.NewSource(seed))
}

// RecvDropped returns how many arriving frames fault injection discarded.
func (e *Endpoint) RecvDropped() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rxDropped
}

// SetBlackhole toggles receive-side blackholing: while set, every arriving
// AAL5 frame is dropped (and counted in RecvDropped) before reassembly —
// the receive half of a crashed or partitioned host for chaos tests over
// the real UDP carrier.
func (e *Endpoint) SetBlackhole(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.blackhole = on
}

// dropArrival decides fault injection for one arriving frame.
func (e *Endpoint) dropArrival() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.blackhole {
		e.rxDropped++
		return true
	}
	if e.rxDropRate <= 0 || e.rxDropRNG.Float64() >= e.rxDropRate {
		return false
	}
	e.rxDropped++
	return true
}

// CellsSent returns transmitted cell count.
func (e *Endpoint) CellsSent() int64 {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	return e.cellsSent
}

// TrainStats reports cell-train coalescing: how many datagrams carried
// more than one AAL5 frame, the total frames those trains carried, and the
// largest train seen (in cells). A single-frame datagram is not a train.
func (e *Endpoint) TrainStats() (trains, frames, maxCells int64) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	return e.trains, e.trainFrames, e.maxTrain
}

// CellsReceived returns received cell count.
func (e *Endpoint) CellsReceived() int64 { return e.cellsRecv }

// BadCells returns cells rejected by HEC or reassembly checks.
func (e *Endpoint) BadCells() int64 { return e.badCells }

// addrOf resolves a peer's UDP address.
func (e *Endpoint) addrOf(p transport.ProcID) *net.UDPAddr {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	if peer, ok := e.net.endpoints[p]; ok {
		return peer.conn.LocalAddr().(*net.UDPAddr)
	}
	return nil
}

// ConfigureChannel sets the drain priority (0..7, higher drained first)
// and optional GCRA traffic contract of the VC that carries NCS channel ch
// toward dst. Call before traffic flows on the channel; cells beyond the
// contract are discarded at the emulated UNI (drop policy) — a frame that
// loses a cell fails AAL5 CRC at the receiver, exactly the loss the NCS
// error-control tier recovers.
func (e *Endpoint) ConfigureChannel(dst transport.ProcID, ch wire.ChannelID, prio int, g *atm.GCRA) {
	e.ConfigureVC(VCForChan(e.proc, dst, ch), prio, g)
}

// ConfigureVC is ConfigureChannel for an explicit VC.
func (e *Endpoint) ConfigureVC(vc atm.VC, prio int, g *atm.GCRA) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	q := e.queue(vc)
	q.prio = prio
	q.gcra = g
}

// BindChannel implements transport.ChannelRouter. The UDP fabric has no
// switch tables to program — the per-VC transmit queue materializes lazily
// on first send — so connecting a signaled call needs no work here.
func (e *Endpoint) BindChannel(peer transport.ProcID, ch wire.ChannelID) {}

// UnbindChannel implements transport.ChannelRouter: a released call's
// transmit queue is dropped so channel churn cannot accrete per-VC state.
// Only the transmit side is touched (under txMu); receive-side reassembly
// state belongs to the reader goroutine and is bounded by the VC space,
// not by churn. The queue is left in place if frames are still pending —
// the writer drains every accepted frame (the Close guarantee), and a
// reused channel ID maps back onto the same VC anyway.
func (e *Endpoint) UnbindChannel(peer transport.ProcID, ch wire.ChannelID) {
	if ch == 0 {
		return
	}
	vc := VCForChan(e.proc, peer, ch)
	e.txMu.Lock()
	defer e.txMu.Unlock()
	q, ok := e.txByVC[vc]
	if !ok || q.frames.Size() > 0 {
		return
	}
	delete(e.txByVC, vc)
	for i, x := range e.queues {
		if x == q {
			e.queues = append(e.queues[:i], e.queues[i+1:]...)
			break
		}
	}
}

// VCStats reports a transmit VC's accounting: cells handed to the kernel
// and cells discarded by the VC's policer.
func (e *Endpoint) VCStats(vc atm.VC) (cellsSent, policed int64) {
	e.txMu.Lock()
	defer e.txMu.Unlock()
	if q, ok := e.txByVC[vc]; ok {
		return q.cellsSent, q.policed
	}
	return 0, 0
}

// queue returns vc's transmit queue, creating it at default priority.
// Callers hold txMu.
func (e *Endpoint) queue(vc atm.VC) *vcTx {
	q, ok := e.txByVC[vc]
	if !ok {
		q = &vcTx{vc: vc}
		e.txByVC[vc] = q
		e.queues = append(e.queues, q)
	}
	return q
}

// Send implements transport.Endpoint: the message is chunked, each chunk
// segmented into AAL5 cells, and each frame is filed in its VC's transmit
// queue — the VC the message's channel rides. A single writer drains the
// queues highest-priority first, policing each VC's cells against its GCRA
// contract, and coalesces consecutive frames of one VC into a single
// cell-train datagram. The message is fully serialized into pooled frame
// buffers before Send returns, so the caller may reuse m and m.Data; the
// buffers recycle once the kernel has copied each datagram. A message
// longer than MaxMessage is refused before anything is queued: Send panics
// with an ErrTooLarge error, as it does for other misuse (the Endpoint
// interface has no error return).
func (e *Endpoint) Send(t *mts.Thread, m *transport.Message) {
	dst := e.addrOf(m.To)
	if dst == nil {
		panic(fmt.Sprintf("udpatm: unknown destination proc %d", m.To))
	}
	if err := e.enqueueFrames(m, dst); err != nil {
		panic(err)
	}
}

// SendBatch implements transport.BatchSender: the destination resolves
// once for the whole same-destination run, and the burst's frames land in
// the VC queues back to back, which is what lets the writer goroutine form
// long cell trains.
func (e *Endpoint) SendBatch(t *mts.Thread, ms []*transport.Message) {
	if len(ms) == 0 {
		return
	}
	dst := e.addrOf(ms[0].To)
	if dst == nil {
		panic(fmt.Sprintf("udpatm: unknown destination proc %d", ms[0].To))
	}
	for _, m := range ms {
		if m.To != ms[0].To {
			panic("udpatm: SendBatch run mixes destinations")
		}
		if err := e.enqueueFrames(m, dst); err != nil {
			panic(err)
		}
	}
}

// enqueueFrames serializes one message into AAL5 frames on its VC's
// transmit queue; the shared body of Send and SendBatch. A message too
// large for the chunk index is refused with an error before any frame is
// queued.
func (e *Endpoint) enqueueFrames(m *transport.Message, dst *net.UDPAddr) error {
	if m.From != e.proc {
		panic(fmt.Sprintf("udpatm: proc %d sending as %d", e.proc, m.From))
	}
	if err := checkSize(m.WireSize()); err != nil {
		return err
	}
	e.mu.Lock()
	e.seq++
	m.Seq = e.seq
	e.mu.Unlock()

	wb := wire.GetBuf(m.WireSize())
	wb.B = m.MarshalAppend(wb.B)
	vc := VCForChan(m.From, m.To, m.Channel)
	ck := wire.NewChunker(wb.B, m.Seq, MaxChunk)
	cb := wire.GetBuf(wire.ChunkHeaderSize + MaxChunk)
	e.txMu.Lock()
	q := e.queue(vc)
	q.dst = dst
	for {
		chunk, ok := ck.Next(cb.B[:0])
		if !ok {
			break
		}
		// Backpressure: past the high-water mark the producer waits for
		// the writer, pacing senders the way the old synchronous write
		// loop did implicitly.
		for e.queued >= maxQueuedFrames && !e.txClosed {
			e.spaceCond.Wait()
		}
		if e.txClosed {
			// The writer is gone; accepting frames would silently lose
			// them. Fail as loudly as the old write-to-closed-socket
			// path did.
			e.txMu.Unlock()
			wire.PutBuf(cb)
			wire.PutBuf(wb)
			panic(fmt.Sprintf("udpatm: proc %d Send after Close", e.proc))
		}
		fb := wire.GetBuf(atm.CellCount(len(chunk)) * atm.CellSize)
		dgram, err := atm.AppendCells(fb.B, vc, chunk)
		if err != nil {
			e.txMu.Unlock()
			panic("udpatm: segment: " + err.Error())
		}
		fb.B = dgram
		q.frames.Push(fb)
		e.queued++
		e.txCond.Signal()
	}
	e.txMu.Unlock()
	wire.PutBuf(cb)
	wire.PutBuf(wb)
	return nil
}

// maxQueuedFrames bounds frames outstanding across all VC transmit queues
// (~2 MB of 8 KB AAL5 frames); past it Send waits for the writer.
const maxQueuedFrames = 256

// maxTrainBytes bounds one cell-train datagram: consecutive AAL5 frames of
// one VC are laid end to end (cells back to back) in a single UDP datagram
// up to this size — the emulated MTU of the UDP "physical layer". It stays
// under both the 64 KB read buffer and the UDP payload ceiling. Receivers
// need no train awareness: AAL5 end-of-frame cells delimit frames inside
// the train exactly as on a real link.
const maxTrainBytes = 60 * 1024

// nominalLinkBps is the modeled physical-link rate the GCRA departure
// clock paces cells at: the 140 Mbps TAXI interface of the paper's
// testbed. cellWireTime is one 53-octet cell's serialization time on it.
const nominalLinkBps = 140e6

var cellWireTime = time.Duration(atm.CellSize * 8 * int64(time.Second) / int64(nominalLinkBps))

// pickQueue returns the highest-priority non-empty transmit queue
// (creation order breaks ties). Callers hold txMu.
func (e *Endpoint) pickQueue() *vcTx {
	var best *vcTx
	for _, q := range e.queues {
		if q.frames.Size() > 0 && (best == nil || q.prio > best.prio) {
			best = q
		}
	}
	return best
}

// writeLoop is the single transmit drain: it services per-VC queues in
// priority order, applies each VC's GCRA policer cell by cell, and writes
// each surviving frame as one UDP datagram. It exits — signalling
// writerDone — only once the endpoint is closed *and* the queues are
// drained, so Close never loses accepted frames.
func (e *Endpoint) writeLoop() {
	defer close(e.writerDone)
	e.txMu.Lock()
	for {
		q := e.pickQueue()
		if q == nil {
			if e.txClosed {
				e.txMu.Unlock()
				return
			}
			e.txCond.Wait()
			continue
		}
		fb := q.frames.Pop()
		e.queued--
		e.spaceCond.Signal()
		// Cell train: coalesce consecutive frames of this VC into one
		// MTU-bounded datagram. The cells ride back to back exactly as a
		// real adapter would clock them out, AAL5 end-of-frame markers
		// keep the frame boundaries, and the per-cell GCRA judgement
		// below is unchanged — only the syscall count shrinks.
		framesInTrain := int64(1)
		for q.frames.Size() > 0 && len(fb.B)+len(q.frames.Peek().B) <= maxTrainBytes {
			nb := q.frames.Pop()
			e.queued--
			e.spaceCond.Signal()
			fb.B = append(fb.B, nb.B...)
			wire.PutBuf(nb)
			framesInTrain++
		}
		if framesInTrain > 1 {
			e.trains++
			e.trainFrames += framesInTrain
			if cells := int64(len(fb.B) / atm.CellSize); cells > e.maxTrain {
				e.maxTrain = cells
			}
		}
		gcra := q.gcra
		dst := q.dst
		e.txMu.Unlock()

		dgram := fb.B
		kept := len(dgram) / atm.CellSize
		dropped := 0
		if gcra != nil {
			// UPC: compact conforming cells forward, discard the rest.
			// Each cell is judged at its modeled wire departure on the
			// nominal link — cells of one datagram leave one cell time
			// apart, so a contract at or above the link's own cell rate
			// conforms exactly (mirrors nic.SimATM's departure clock).
			now := time.Since(e.epoch)
			if e.linkClock < now {
				e.linkClock = now
			}
			w := 0
			for off := 0; off+atm.CellSize <= len(dgram); off += atm.CellSize {
				depart := e.linkClock
				e.linkClock += cellWireTime
				if !gcra.Conforms(depart) {
					dropped++
					continue
				}
				if w != off {
					copy(dgram[w:w+atm.CellSize], dgram[off:off+atm.CellSize])
				}
				w += atm.CellSize
			}
			dgram = dgram[:w]
			kept = w / atm.CellSize
		}
		if len(dgram) > 0 {
			if _, err := e.conn.WriteToUDP(dgram, dst); err != nil {
				select {
				case <-e.closed:
					wire.PutBuf(fb)
					e.txMu.Lock()
					continue
				default:
					panic("udpatm: write: " + err.Error())
				}
			}
		}
		wire.PutBuf(fb)

		e.txMu.Lock()
		q.cellsSent += int64(kept)
		q.policed += int64(dropped)
		e.cellsSent += int64(kept)
	}
}

// readBufSize is the reader's datagram buffer: every cell train the
// writer forms (maxTrainBytes) fits.
const readBufSize = 64 * 1024

// readLoop receives datagrams and hands each to recvDatagram.
func (e *Endpoint) readLoop() {
	buf := make([]byte, readBufSize)
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-e.closed:
				return
			default:
				return // socket broke; nothing sensible to do
			}
		}
		e.recvDatagram(buf[:n])
	}
}

// recvDatagram processes one arriving datagram — a cell train of one or
// more AAL5 frames — from untrusted bytes: it validates each cell and feeds
// it to reassembly. Reader goroutine only.
func (e *Endpoint) recvDatagram(b []byte) {
	if len(b)%atm.CellSize != 0 {
		e.badCells++
		return
	}
	if e.dropArrival() {
		return
	}
	for off := 0; off < len(b); off += atm.CellSize {
		cell, err := atm.DecodeCell(b[off : off+atm.CellSize])
		if err != nil {
			e.badCells++
			continue
		}
		e.cellsRecv++
		e.pushCell(cell)
	}
}

// knownVC reports whether vc is the VC some registered endpoint's channel
// to this one rides (VCForChan with this endpoint as destination). Only
// such VCs get receive state, so stray or forged cells cannot make the
// per-VC maps grow without bound. Runs once per VC not yet seen.
func (e *Endpoint) knownVC(vc atm.VC) bool {
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for src := range n.endpoints {
		if VCForChan(src, e.proc, wire.ChannelID(vc.VPI)) == vc {
			return true
		}
	}
	return false
}

// pushCell runs per validated cell: AAL5 reassembly per VC, then chunk
// assembly per VC; a completed message is decoded (copying its payload out
// of the reused assembly buffer) and posted into the runtime. Cells on a VC
// no registered peer sends on are dropped before any state is allocated,
// and a reassembled chunk longer than the sender ever emits
// (MaxChunk plus its header) is dropped, so one message stays within
// MaxMessage. Both count as bad cells.
func (e *Endpoint) pushCell(cell atm.Cell) {
	vc := cell.Header.VC()
	r := e.reasm[vc]
	if r == nil {
		if !e.knownVC(vc) {
			e.badCells++
			return
		}
		r = atm.NewReassembler(vc)
		e.reasm[vc] = r
	}
	chunk, done, err := r.Push(cell)
	if err != nil {
		e.badCells++
		return
	}
	if !done {
		return
	}
	if len(chunk) > wire.ChunkHeaderSize+MaxChunk {
		e.badCells++
		return
	}
	a := e.asm[vc]
	if a == nil {
		a = &wire.Assembler{}
		e.asm[vc] = a
	}
	msgWire, done, err := a.Push(chunk)
	if err != nil {
		e.badCells++
		return
	}
	if !done {
		return
	}
	// Copy the completed message out of the reused assembly buffer into a
	// pooled frame that travels with it; the consumer recycles it
	// (RecvInto, control handlers), so the reassembly tail stops feeding
	// the allocator.
	fb := wire.GetBuf(len(msgWire))
	fb.B = append(fb.B, msgWire...)
	m, err := wire.UnmarshalPooled(fb)
	if err != nil {
		wire.PutBuf(fb)
		e.badCells++
		return
	}
	e.rt.Post(func() {
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h != nil {
			h(m)
		}
	})
}
