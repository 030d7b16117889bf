// Package wire owns NCS message framing end-to-end: the message header
// codec, the chunk framing that splits a marshalled message across AAL5
// frames (or MTU-sized TCP segments), and the pooled buffers the hot path
// runs on. It is the single wire-format authority in the tree — every
// carrier (transport.Mem, tcpip.SimTCP, tcpip.TCPEndpoint, nic.SimATM,
// udpatm.UDP) delegates framing, segmentation extents, and reassembly to
// this package instead of keeping a private copy of the byte layout.
//
// The package reproduces the paper's host-overhead argument in Go terms
// (Yadav, Reddy, Hariri, Fox; HPDC '95): NCS wins on the ATM path by
// eliminating per-message copies and buffer management. Accordingly the
// codec is append-style throughout — MarshalAppend and Chunker.Next write
// into caller-provided buffers, Assembler reuses one grow-once buffer per
// stream, and GetBuf/PutBuf recycle backing arrays through sync.Pool size
// classes — so a steady-state send → segment → reassemble → deliver cycle
// allocates (almost) nothing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// ProcID identifies a process (one per simulated/emulated workstation).
type ProcID int

// Any is the wildcard process value in receive matching (the paper's -1).
const Any = -1

// ChannelID identifies one NCS channel (virtual circuit) between a process
// pair. Channel 0 is the default channel every process pair has implicitly;
// nonzero channels are opened explicitly with their own QoS (flow control,
// error control, priority). The ATM carriers map the channel ID onto the
// VPI, so IDs above 255 cannot ride distinct VCs — the core enforces that
// bound at open time.
type ChannelID uint16

// Message is one NCS/p4 message. Thread fields use the paper's addressing:
// a message goes from (FromProc, FromThread) to (ToProc, ToThread). The p4
// baseline leaves thread fields zero and uses Tag as the p4 message type.
type Message struct {
	From       ProcID
	To         ProcID
	FromThread int
	ToThread   int
	Tag        int
	// Seq is the transport-level sequence, owned by the endpoint.
	Seq uint32
	// ESeq is the end-to-end sequence used by NCS error control (go-back-N);
	// endpoints carry it untouched.
	ESeq uint32
	// Channel is the NCS channel the message travels on; 0 is the default
	// channel. Endpoints carry it untouched; the ATM carriers additionally
	// use it to select the virtual circuit.
	Channel ChannelID
	// Credit and Ack are the piggybacked control plane (format v3): a data
	// frame can carry the sending end's *receiver-role* state for its
	// channel — the flow tier's cumulative credit advertisement and one
	// error-control acknowledgement — so steady bidirectional traffic needs
	// no standalone control frames. HasCredit/HasAck gate each word's
	// presence on the wire; an absent word costs nothing (the v2 header
	// size). Both values are consumed with wrap-safe SeqNewer semantics by
	// the flow tier (the error tier's ack may be cumulative or selective,
	// per discipline), so a piggybacked word lost with its data frame is
	// simply superseded by a later one.
	Credit, Ack       uint32
	HasCredit, HasAck bool
	// CreditChan and AckChan name the channel each piggybacked word belongs
	// to (format v4): a lane that has control pending for channel A and a
	// data frame departing on channel B toward the same peer can attach A's
	// words to B's frame — cross-channel piggyback. A word belonging to the
	// frame's own channel costs nothing extra on the wire; a foreign word
	// costs one byte (channel IDs fit the ATM VPI's 8 bits). Decoding fills
	// these in unconditionally — same-channel words get Channel — so
	// consumers always know the owning channel.
	CreditChan, AckChan ChannelID
	Data                []byte

	// pooled, when non-nil, is the pooled buffer Data aliases
	// (UnmarshalPooled); Release returns it to the pool.
	pooled *Buf
}

func (m *Message) String() string {
	return fmt.Sprintf("msg{%d.%d->%d.%d ch=%d tag=%d seq=%d %dB}",
		m.From, m.FromThread, m.To, m.ToThread, m.Channel, m.Tag, m.Seq, len(m.Data))
}

// HeaderSize is the encoded base header length in bytes. Version 2 of the
// format grew the header from 32 to 36 bytes: a 2-byte channel ID plus two
// reserved bytes. Version 3 keeps the 36-byte base but gives the first
// reserved byte to a flags field gating *optional* trailing control words
// (piggybacked credit/ack, 4 bytes each, between header and payload), so a
// frame carrying no control still costs exactly the v2 size. Version 4 adds
// the flagChans cross-channel tagging bytes (one per present word, only when
// a word is foreign to the frame's channel). The magic is bumped at each
// revision so an older peer rejects newer frames loudly instead of
// misparsing them.
const HeaderSize = 36

// Optional-field flags (header byte 34).
const (
	flagCredit = 1 << 0 // 4-byte cumulative credit advertisement present
	flagAck    = 1 << 1 // 4-byte error-control acknowledgement present
	// flagChans (format v4) marks cross-channel control: each *present*
	// word above is followed (after all words) by a 1-byte owning-channel
	// ID. The flag is only set when at least one word belongs to a channel
	// other than the frame's own, so same-channel piggyback — the common
	// case — still encodes at the v3 size.
	flagChans = 1 << 2
)

// ErrShortMessage reports a truncated wire message.
var ErrShortMessage = errors.New("wire: short message")

// ErrMagic reports a wire message with a bad magic number.
var ErrMagic = errors.New("wire: bad magic")

// ErrChanOwner reports a cross-channel control word naming the default
// channel (0) as its owner on another channel's frame. MarshalAppend reads
// an owner of 0 as "the frame's own channel", so it never produces one.
var ErrChanOwner = errors.New("wire: cross-channel word owned by channel 0")

const wireMagic = 0x4E435334 // "NCS4"

// crossChan reports whether any piggybacked word belongs to a channel other
// than the frame's own, i.e. whether flagChans must go on the wire. A zero
// CreditChan/AckChan means "the frame's own channel" so plain v3-style use
// (fields never set) costs nothing.
func (m *Message) crossChan() bool {
	return (m.HasCredit && m.CreditChan != 0 && m.CreditChan != m.Channel) ||
		(m.HasAck && m.AckChan != 0 && m.AckChan != m.Channel)
}

// optSize returns the encoded length of the message's optional control
// words.
func (m *Message) optSize() int {
	n := 0
	words := 0
	if m.HasCredit {
		n += 4
		words++
	}
	if m.HasAck {
		n += 4
		words++
	}
	if m.crossChan() {
		n += words
	}
	return n
}

// WireSize returns the encoded length of the message (header + optional
// control words + payload).
func (m *Message) WireSize() int { return HeaderSize + m.optSize() + len(m.Data) }

// MarshalAppend encodes the message (header + payload) onto dst and returns
// the extended slice. Callers that size dst with WireSize (typically via
// GetBuf) get an allocation-free encode.
func (m *Message) MarshalAppend(dst []byte) []byte {
	var hdr [HeaderSize]byte
	off := len(dst)
	dst = append(dst, hdr[:]...)
	h := dst[off:]
	binary.BigEndian.PutUint32(h[0:], wireMagic)
	binary.BigEndian.PutUint32(h[4:], uint32(int32(m.From)))
	binary.BigEndian.PutUint32(h[8:], uint32(int32(m.To)))
	binary.BigEndian.PutUint32(h[12:], uint32(int32(m.FromThread)))
	binary.BigEndian.PutUint32(h[16:], uint32(int32(m.ToThread)))
	binary.BigEndian.PutUint32(h[20:], uint32(int32(m.Tag)))
	binary.BigEndian.PutUint32(h[24:], m.Seq)
	binary.BigEndian.PutUint32(h[28:], m.ESeq)
	binary.BigEndian.PutUint16(h[32:], uint16(m.Channel))
	var flags byte
	if m.HasCredit {
		flags |= flagCredit
	}
	if m.HasAck {
		flags |= flagAck
	}
	cross := m.crossChan()
	if cross {
		flags |= flagChans
	}
	h[34] = flags
	// h[35] reserved, zero.
	if m.HasCredit {
		dst = AppendUint32(dst, m.Credit)
	}
	if m.HasAck {
		dst = AppendUint32(dst, m.Ack)
	}
	if cross {
		if m.HasCredit {
			dst = append(dst, byte(m.chanOrOwn(m.CreditChan)))
		}
		if m.HasAck {
			dst = append(dst, byte(m.chanOrOwn(m.AckChan)))
		}
	}
	return append(dst, m.Data...)
}

// chanOrOwn resolves a piggybacked word's owning channel for encoding: zero
// means "the frame's own channel".
func (m *Message) chanOrOwn(c ChannelID) ChannelID {
	if c == 0 {
		return m.Channel
	}
	return c
}

// Marshal encodes the message into a fresh buffer: MarshalAppend into an
// exactly-sized allocation. Hot paths should prefer MarshalAppend with a
// pooled buffer.
func (m *Message) Marshal() []byte {
	return m.MarshalAppend(make([]byte, 0, m.WireSize()))
}

// decodeHeader fills m's header and optional-word fields from b, which the
// caller has validated with checkWire, and returns the offset where the
// payload begins.
func decodeHeader(m *Message, b []byte) int {
	m.From = ProcID(int32(binary.BigEndian.Uint32(b[4:])))
	m.To = ProcID(int32(binary.BigEndian.Uint32(b[8:])))
	m.FromThread = int(int32(binary.BigEndian.Uint32(b[12:])))
	m.ToThread = int(int32(binary.BigEndian.Uint32(b[16:])))
	m.Tag = int(int32(binary.BigEndian.Uint32(b[20:])))
	m.Seq = binary.BigEndian.Uint32(b[24:])
	m.ESeq = binary.BigEndian.Uint32(b[28:])
	m.Channel = ChannelID(binary.BigEndian.Uint16(b[32:]))
	flags := b[34]
	off := HeaderSize
	if flags&flagCredit != 0 {
		m.Credit = binary.BigEndian.Uint32(b[off:])
		m.HasCredit = true
		m.CreditChan = m.Channel
		off += 4
	}
	if flags&flagAck != 0 {
		m.Ack = binary.BigEndian.Uint32(b[off:])
		m.HasAck = true
		m.AckChan = m.Channel
		off += 4
	}
	if flags&flagChans != 0 {
		if m.HasCredit {
			m.CreditChan = ChannelID(b[off])
			off++
		}
		if m.HasAck {
			m.AckChan = ChannelID(b[off])
			off++
		}
	}
	return off
}

// AppendUint32 appends v to dst big-endian. Control-message payload writers
// (credits, acks, barrier generations) use it with reusable buffers so a
// steady stream of acknowledgements encodes allocation-free.
func AppendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// Uint32 reads a big-endian uint32 from b, returning 0 when b is short —
// the forgiving decode control handlers want for possibly-empty payloads.
func Uint32(b []byte) uint32 {
	if len(b) < 4 {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// SeqNewer reports whether a is strictly newer than b in 32-bit serial-
// number arithmetic (wrap-safe, RFC 1982 style). Control payloads written
// with AppendUint32 carry *cumulative* counters — credit advertisements,
// cumulative acks — precisely so that any later message supersedes a lost
// one on a lossy carrier; consumers compare them with SeqNewer so the
// protocol keeps working when the counter wraps. Equal values are not
// newer: a duplicate advertisement is stale by definition.
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

func checkWire(b []byte) error {
	if len(b) < HeaderSize {
		return ErrShortMessage
	}
	if binary.BigEndian.Uint32(b[0:]) != wireMagic {
		return ErrMagic
	}
	// The optional control words the flags announce must be present too.
	need := HeaderSize
	words := 0
	if b[34]&flagCredit != 0 {
		need += 4
		words++
	}
	if b[34]&flagAck != 0 {
		need += 4
		words++
	}
	if b[34]&flagChans != 0 {
		need += words
	}
	if len(b) < need {
		return ErrShortMessage
	}
	if b[34]&flagChans != 0 && binary.BigEndian.Uint16(b[32:]) != 0 {
		for _, owner := range b[need-words : need] {
			if owner == 0 {
				return ErrChanOwner
			}
		}
	}
	return nil
}

// Unmarshal decodes a wire message. Data is copied out of b, so the caller
// remains free to reuse or recycle b — the right call when b is a pooled or
// per-stream reassembly buffer.
func Unmarshal(b []byte) (*Message, error) {
	if err := checkWire(b); err != nil {
		return nil, err
	}
	m := &Message{}
	off := decodeHeader(m, b)
	if len(b) > off {
		m.Data = append([]byte(nil), b[off:]...)
	}
	return m, nil
}

// msgPool recycles decoded Message structs on the pooled delivery path:
// UnmarshalPooled draws from it and Release returns to it, so a steady
// RecvInto loop allocates neither the frame buffer nor the Message header
// struct. Messages whose payload the application keeps (plain Recv) are
// simply never Released and fall to the garbage collector with their data.
var msgPool = sync.Pool{New: func() any { return &Message{} }}

// UnmarshalPooled decodes a wire message that takes ownership of the
// *pooled* buffer backing it: Data aliases the buffer past the header with
// no copy, and Release hands the buffer — and the Message struct itself —
// back to their pools once the payload has been consumed. This is the
// recycling delivery path for carriers that stage each arriving message in
// its own GetBuf buffer (the in-process Mem mesh, the real-TCP reader, the
// UDP/ATM reassembly tail): a consumer that copies the payload out —
// RecvInto, control handlers — closes the loop, so steady-state receive
// traffic stops allocating at all.
func UnmarshalPooled(fb *Buf) (*Message, error) {
	if err := checkWire(fb.B); err != nil {
		return nil, err
	}
	m := msgPool.Get().(*Message)
	off := decodeHeader(m, fb.B)
	if len(fb.B) > off {
		m.Data = fb.B[off:]
	}
	m.pooled = fb
	return m, nil
}

// Release recycles the message's pooled backing buffer and struct, if
// pooled; the message and its Data are invalid afterwards. Only the
// consumer that owns the message may call it, and only once the payload
// has been copied out or will never be read (a control frame, a
// suppressed duplicate). Messages without a pooled buffer ignore it, so
// the call is safe on every owning path.
func (m *Message) Release() {
	if m.pooled == nil {
		return
	}
	fb := m.pooled
	*m = Message{}
	PutBuf(fb)
	msgPool.Put(m)
}

// UnmarshalOwned decodes a wire message whose buffer ownership transfers to
// the decoded message: Data aliases b[HeaderSize:] with no copy. The caller
// must not reuse, modify, or recycle b afterwards. This is the zero-copy
// delivery path for carriers whose receive buffer is already an independent
// per-message allocation (the in-process Mem mesh, the real-TCP reader).
func UnmarshalOwned(b []byte) (*Message, error) {
	if err := checkWire(b); err != nil {
		return nil, err
	}
	m := &Message{}
	off := decodeHeader(m, b)
	if len(b) > off {
		m.Data = b[off:]
	}
	return m, nil
}
