package wire

import (
	"encoding/binary"
	"errors"
)

// Chunk framing: a marshalled message larger than a carrier's frame payload
// is split into chunks, each prefixed by an 8-byte header — message
// sequence (4), chunk index (2), flags (1: last), reserved (1). This is the
// one chunk-header layout in the tree; the ATM carriers put one chunk per
// AAL5 CPCS-PDU, and the reassembly side rebuilds the message with
// Assembler.

// ChunkHeaderSize is the encoded chunk header length in bytes.
const ChunkHeaderSize = 8

// MaxChunks is the most chunks one message may split into: the chunk index
// is 16 bits, so chunk 65,535 must be the last.
const MaxChunks = 1 << 16

const chunkFlagLast = 1

// ChunkHeader is the decoded per-chunk prefix.
type ChunkHeader struct {
	// Seq is the transport-level sequence of the message this chunk
	// belongs to.
	Seq uint32
	// Index is the chunk's position within the message, starting at 0.
	Index uint16
	// Last marks the final chunk of the message.
	Last bool
}

// Errors returned by chunk parsing and reassembly.
var (
	ErrChunkShort = errors.New("wire: chunk shorter than header")
	ErrChunkStray = errors.New("wire: chunk for a message whose head was lost")
	ErrChunkGap   = errors.New("wire: chunk index discontinuity")
)

// AppendChunkHeader encodes h onto dst.
func AppendChunkHeader(dst []byte, h ChunkHeader) []byte {
	var b [ChunkHeaderSize]byte
	binary.BigEndian.PutUint32(b[0:], h.Seq)
	binary.BigEndian.PutUint16(b[4:], h.Index)
	if h.Last {
		b[6] = chunkFlagLast
	}
	return append(dst, b[:]...)
}

// ParseChunkHeader decodes the prefix of a chunk frame.
func ParseChunkHeader(b []byte) (ChunkHeader, error) {
	if len(b) < ChunkHeaderSize {
		return ChunkHeader{}, ErrChunkShort
	}
	return ChunkHeader{
		Seq:   binary.BigEndian.Uint32(b[0:]),
		Index: binary.BigEndian.Uint16(b[4:]),
		Last:  b[6]&chunkFlagLast != 0,
	}, nil
}

// Fragments returns how many maxPayload-sized fragments an n-byte blob
// needs; an empty blob still takes one (the frame must exist to carry the
// header). Shared by the chunker and the TCP MTU model.
func Fragments(n, maxPayload int) int {
	if n <= 0 {
		return 1
	}
	return (n + maxPayload - 1) / maxPayload
}

// Extent returns the [lo, hi) byte range of fragment i of an n-byte blob
// split at maxPayload.
func Extent(n, maxPayload, i int) (lo, hi int) {
	lo = i * maxPayload
	hi = lo + maxPayload
	if hi > n {
		hi = n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Chunker iterates the chunk frames of one marshalled message. It holds no
// buffers of its own: Next appends each frame (header + payload slice) onto
// a caller-provided buffer, so one pooled scratch buffer serves the whole
// message.
type Chunker struct {
	wire       []byte
	seq        uint32
	maxPayload int
	i, n       int
}

// NewChunker returns a chunker over the marshalled message wire, stamping
// every chunk with seq and carrying at most maxPayload message bytes per
// chunk (maxPayload must be > 0).
func NewChunker(wire []byte, seq uint32, maxPayload int) Chunker {
	if maxPayload <= 0 {
		panic("wire: chunk payload must be positive")
	}
	return Chunker{wire: wire, seq: seq, maxPayload: maxPayload, n: Fragments(len(wire), maxPayload)}
}

// NumChunks returns the total number of chunks the message splits into.
func (c *Chunker) NumChunks() int { return c.n }

// Next appends the next chunk frame onto dst (pass scratch[:0] to reuse a
// buffer) and returns the extended slice. ok is false when all chunks have
// been produced.
func (c *Chunker) Next(dst []byte) (chunk []byte, ok bool) {
	if c.i >= c.n {
		return dst, false
	}
	lo, hi := Extent(len(c.wire), c.maxPayload, c.i)
	dst = AppendChunkHeader(dst, ChunkHeader{
		Seq:   c.seq,
		Index: uint16(c.i),
		Last:  c.i == c.n-1,
	})
	dst = append(dst, c.wire[lo:hi]...)
	c.i++
	return dst, true
}

// Assembler rebuilds marshalled messages from a stream of chunk frames.
// One Assembler serves one ordered stream (one VC); its buffer grows once
// and is reused for every subsequent message on the stream.
//
// The assembler is strict: a chunk whose sequence differs from the message
// under assembly abandons that message (counted in Dropped), a chunk index
// discontinuity — or a non-last chunk at the final index 0xFFFF, after
// which the index would wrap — abandons and returns ErrChunkGap, and a
// chunk arriving for a message whose head was never seen returns
// ErrChunkStray. This is the loss behaviour the paper's error-control tier
// (go-back-N) recovers from.
type Assembler struct {
	buf     []byte
	seq     uint32
	next    uint16
	active  bool
	dropped int64
}

// Dropped returns how many partially-assembled messages were abandoned.
func (a *Assembler) Dropped() int64 { return a.dropped }

// Reset discards any partial message without counting a drop.
func (a *Assembler) Reset() {
	a.buf = a.buf[:0]
	a.active = false
	a.next = 0
}

func (a *Assembler) abandon() {
	a.dropped++
	a.Reset()
}

// Push adds the next chunk frame. When the chunk completes a message, Push
// returns the marshalled bytes with done=true; the returned slice is valid
// only until the next Push or Reset (decode or copy before continuing —
// Unmarshal copies). A nil error with done=false means the chunk was
// absorbed into a partial message.
func (a *Assembler) Push(chunk []byte) (msg []byte, done bool, err error) {
	h, err := ParseChunkHeader(chunk)
	if err != nil {
		return nil, false, err
	}
	if a.active && h.Seq != a.seq {
		// A frame of the previous message was lost: abandon the partial
		// so the new message assembles cleanly.
		a.abandon()
	}
	if !a.active {
		if h.Index != 0 {
			// Mid-message start: the head chunk was lost; skip the rest.
			return nil, false, ErrChunkStray
		}
		a.active = true
		a.seq = h.Seq
		a.next = 0
		a.buf = a.buf[:0]
	}
	if h.Index != a.next || (h.Index == MaxChunks-1 && !h.Last) {
		// Interior chunk lost, or the message claims more chunks than the
		// index can number: it cannot be completed.
		a.abandon()
		return nil, false, ErrChunkGap
	}
	a.next++
	a.buf = append(a.buf, chunk[ChunkHeaderSize:]...)
	if !h.Last {
		return nil, false, nil
	}
	a.active = false
	return a.buf, true, nil
}
