// Package atm implements the ATM data plane the paper's NCS runs over: the
// 53-byte cell format with HEC header protection, and AAL5 segmentation and
// reassembly (the adaptation layer the SBA-200 adapter implements in
// hardware — "special hardware for AAL CRC", §2).
//
// Cells produced here are real bytes: the UDP "ATM emulation" transport puts
// them on loopback sockets, and the simulated switch forwards them by
// VPI/VCI exactly as a FORE ASX would. Nothing about framing is stubbed.
package atm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Cell geometry.
const (
	CellSize    = 53 // total octets on the wire
	HeaderSize  = 5  // 4 header octets + 1 HEC octet
	PayloadSize = 48 // octets of payload per cell
)

// PT (payload type) bit 0 as used by AAL5: set on the last cell of a
// CPCS-PDU (ATM-layer-user-to-user indication).
const ptAAL5End = 0x1

// Header is the decoded 5-octet UNI cell header.
type Header struct {
	GFC uint8  // generic flow control, 4 bits
	VPI uint8  // virtual path identifier, 8 bits at UNI
	VCI uint16 // virtual channel identifier, 16 bits
	PT  uint8  // payload type, 3 bits
	CLP bool   // cell loss priority
}

// VC identifies a virtual channel (VPI, VCI pair).
type VC struct {
	VPI uint8
	VCI uint16
}

func (v VC) String() string { return fmt.Sprintf("%d/%d", v.VPI, v.VCI) }

// VC returns the header's virtual-channel identifier.
func (h Header) VC() VC { return VC{VPI: h.VPI, VCI: h.VCI} }

// EndOfFrame reports whether the cell closes an AAL5 CPCS-PDU.
func (h Header) EndOfFrame() bool { return h.PT&ptAAL5End != 0 }

// Cell is one 53-octet ATM cell.
type Cell struct {
	Header  Header
	Payload [PayloadSize]byte
}

// Errors returned by cell and AAL5 decoding.
var (
	ErrCellSize   = errors.New("atm: cell is not 53 octets")
	ErrHEC        = errors.New("atm: HEC mismatch (corrupt header)")
	ErrFieldRange = errors.New("atm: header field out of range")
	ErrCRC        = errors.New("atm: AAL5 CRC-32 mismatch")
	ErrLength     = errors.New("atm: AAL5 length field mismatch")
	ErrTooLong    = errors.New("atm: AAL5 payload exceeds 65535 octets")
	ErrNoFrame    = errors.New("atm: cell outside any frame")
)

// hecTable is the CRC-8 table for polynomial x^8 + x^2 + x + 1 (0x07), the
// ITU-T I.432 HEC generator.
var hecTable [256]byte

func init() {
	for i := 0; i < 256; i++ {
		crc := byte(i)
		for b := 0; b < 8; b++ {
			if crc&0x80 != 0 {
				crc = crc<<1 ^ 0x07
			} else {
				crc <<= 1
			}
		}
		hecTable[i] = crc
	}
}

// HEC computes the header error control octet over the 4 header octets,
// including the I.432 coset offset 0x55.
func HEC(h4 [4]byte) byte {
	crc := byte(0)
	for _, b := range h4 {
		crc = hecTable[crc^b]
	}
	return crc ^ 0x55
}

// headerBytes packs the first four header octets (UNI format).
func (h Header) headerBytes() ([4]byte, error) {
	var out [4]byte
	if h.GFC > 0xF || h.PT > 0x7 {
		return out, ErrFieldRange
	}
	out[0] = h.GFC<<4 | h.VPI>>4
	out[1] = h.VPI<<4 | byte(h.VCI>>12)
	out[2] = byte(h.VCI >> 4)
	clp := byte(0)
	if h.CLP {
		clp = 1
	}
	out[3] = byte(h.VCI)<<4 | h.PT<<1 | clp
	return out, nil
}

// Encode serializes the cell into dst, which must be at least CellSize long.
func (c *Cell) Encode(dst []byte) error {
	if len(dst) < CellSize {
		return ErrCellSize
	}
	h4, err := c.Header.headerBytes()
	if err != nil {
		return err
	}
	copy(dst[:4], h4[:])
	dst[4] = HEC(h4)
	copy(dst[5:CellSize], c.Payload[:])
	return nil
}

// Bytes returns the 53-octet wire form of the cell.
func (c *Cell) Bytes() []byte {
	out := make([]byte, CellSize)
	if err := c.Encode(out); err != nil {
		panic(err) // only field-range errors, which Bytes' callers construct
	}
	return out
}

// DecodeCell parses a 53-octet wire cell, verifying the HEC.
func DecodeCell(src []byte) (Cell, error) {
	var c Cell
	if len(src) != CellSize {
		return c, ErrCellSize
	}
	var h4 [4]byte
	copy(h4[:], src[:4])
	if HEC(h4) != src[4] {
		return c, ErrHEC
	}
	c.Header.GFC = h4[0] >> 4
	c.Header.VPI = h4[0]<<4 | h4[1]>>4
	c.Header.VCI = uint16(h4[1]&0xF)<<12 | uint16(h4[2])<<4 | uint16(h4[3]>>4)
	c.Header.PT = h4[3] >> 1 & 0x7
	c.Header.CLP = h4[3]&1 != 0
	copy(c.Payload[:], src[5:])
	return c, nil
}

// aal5Table drives the AAL5 CRC-32 byte-at-a-time.
var aal5Table [256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i) << 24
		for b := 0; b < 8; b++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ 0x04C11DB7
			} else {
				crc <<= 1
			}
		}
		aal5Table[i] = crc
	}
}

// aal5crc32 computes the AAL5 CRC-32 (generator 0x04C11DB7, init all-ones,
// final complement) over p. Implemented directly rather than via
// hash/crc32 because AAL5 processes bits MSB-first, unlike the reflected
// IEEE 802.3 byte order hash/crc32 implements.
func aal5crc32(p []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range p {
		crc = crc<<8 ^ aal5Table[byte(crc>>24)^b]
	}
	return ^crc
}

// trailerSize is the CPCS-PDU trailer: UU(1) CPI(1) Length(2) CRC(4).
const trailerSize = 8

// MaxPDU is the largest AAL5 payload (16-bit length field).
const MaxPDU = 65535

// maxPDUBytes is the largest legal CPCS-PDU on the wire: MaxPDU octets
// plus pad and trailer, 1366 cells (65,568 octets). The reassembler never
// buffers more than this per VC.
const maxPDUBytes = (MaxPDU + trailerSize + PayloadSize - 1) / PayloadSize * PayloadSize

// buildTrailer computes the CPCS-PDU geometry and trailer for payload:
// the zero-pad length and the 8-octet trailer (UU, CPI, Length, CRC-32).
// The CRC is computed streaming over payload ++ pad ++ trailer[0:4], so no
// contiguous PDU buffer is ever materialized.
func buildTrailer(payload []byte) (pad int, trailer [trailerSize]byte, err error) {
	if len(payload) > MaxPDU {
		return 0, trailer, ErrTooLong
	}
	padded := len(payload) + trailerSize
	pad = (PayloadSize - padded%PayloadSize) % PayloadSize
	binary.BigEndian.PutUint16(trailer[2:], uint16(len(payload)))
	crc := ^uint32(0)
	for _, b := range payload {
		crc = crc<<8 ^ aal5Table[byte(crc>>24)^b]
	}
	for i := 0; i < pad; i++ {
		crc = crc<<8 ^ aal5Table[byte(crc>>24)]
	}
	for _, b := range trailer[:4] {
		crc = crc<<8 ^ aal5Table[byte(crc>>24)^b]
	}
	binary.BigEndian.PutUint32(trailer[4:], ^crc)
	return pad, trailer, nil
}

// pduByte returns octet off of the logical PDU payload ++ pad ++ trailer.
func pduByte(payload []byte, pad int, trailer *[trailerSize]byte, off int) byte {
	if off < len(payload) {
		return payload[off]
	}
	off -= len(payload)
	if off < pad {
		return 0
	}
	return trailer[off-pad]
}

// SegmentInto builds the AAL5 CPCS-PDU for payload and appends its cells on
// the given VC to cells, returning the extended slice. The last cell
// carries the end-of-frame PT indication. An empty payload is legal
// (pure-pad PDU). Passing a scratch slice (cells[:0]) makes segmentation
// allocation-free once the slice has grown to the working set.
func SegmentInto(cells []Cell, vc VC, payload []byte) ([]Cell, error) {
	pad, trailer, err := buildTrailer(payload)
	if err != nil {
		return nil, err
	}
	pduLen := len(payload) + pad + trailerSize
	nCells := pduLen / PayloadSize
	for i := 0; i < nCells; i++ {
		var c Cell
		c.Header = Header{VPI: vc.VPI, VCI: vc.VCI}
		if i == nCells-1 {
			c.Header.PT = ptAAL5End
		}
		base := i * PayloadSize
		lim := len(payload) - base
		if lim > PayloadSize {
			lim = PayloadSize
		}
		if lim > 0 {
			// Fast path: straight copy of the payload run.
			copy(c.Payload[:lim], payload[base:])
		} else {
			lim = 0
		}
		for j := lim; j < PayloadSize; j++ {
			c.Payload[j] = pduByte(payload, pad, &trailer, base+j)
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// Segment builds the AAL5 CPCS-PDU for payload and slices it into freshly
// allocated cells on the given VC; SegmentInto is the reuse-friendly form.
func Segment(vc VC, payload []byte) ([]Cell, error) {
	return SegmentInto(nil, vc, payload)
}

// AppendCells segments payload exactly as SegmentInto but appends the
// cells' 53-octet wire form directly onto dst — the shape the UDP fabric
// wants (a datagram is a frame's cells laid end to end), with no
// intermediate []Cell or per-cell Bytes allocation.
func AppendCells(dst []byte, vc VC, payload []byte) ([]byte, error) {
	pad, trailer, err := buildTrailer(payload)
	if err != nil {
		return nil, err
	}
	pduLen := len(payload) + pad + trailerSize
	nCells := pduLen / PayloadSize
	h := Header{VPI: vc.VPI, VCI: vc.VCI}
	h4, err := h.headerBytes()
	if err != nil {
		return nil, err
	}
	hec := HEC(h4)
	for i := 0; i < nCells; i++ {
		if i == nCells-1 {
			h.PT = ptAAL5End
			if h4, err = h.headerBytes(); err != nil {
				return nil, err
			}
			hec = HEC(h4)
		}
		dst = append(dst, h4[0], h4[1], h4[2], h4[3], hec)
		base := i * PayloadSize
		lim := len(payload) - base
		if lim > PayloadSize {
			lim = PayloadSize
		}
		if lim > 0 {
			dst = append(dst, payload[base:base+lim]...)
		} else {
			lim = 0
		}
		for j := lim; j < PayloadSize; j++ {
			dst = append(dst, pduByte(payload, pad, &trailer, base+j))
		}
	}
	return dst, nil
}

// CellCount returns how many cells Segment will produce for a payload of n
// octets; useful for link-time modelling.
func CellCount(n int) int {
	return (n + trailerSize + PayloadSize - 1) / PayloadSize
}

// Reassembler rebuilds CPCS-PDUs from the cell stream of one VC. Cells from
// different VCs must go to different Reassemblers (the per-VC state the
// SBA-200's i960 keeps).
type Reassembler struct {
	vc      VC
	buf     []byte
	active  bool
	dropped int
}

// NewReassembler returns a reassembler for the given VC.
func NewReassembler(vc VC) *Reassembler {
	return &Reassembler{vc: vc}
}

// Dropped returns how many partially-assembled frames were discarded due to
// errors.
func (r *Reassembler) Dropped() int { return r.dropped }

// Push adds the next cell. When the cell completes a frame, Push returns the
// verified payload (done=true). Cells for other VCs are rejected.
//
// Memory is bounded: a frame still open after the largest legal PDU's 1366
// cells has lost its end-of-frame cell (or comes from a hostile sender), so
// the partial frame is dropped, counted, and reported as ErrLength. Cells
// ahead of a frame's trailer-declared length at end of frame are likewise
// the remains of an earlier frame whose end-of-frame cell was lost: they are
// counted as one dropped frame, and only the tail is verified and delivered.
//
// The returned payload aliases the reassembler's internal buffer and is
// valid only until the next Push: the buffer grows once to the VC's working
// set and is then reused for every frame (the per-VC buffer recycling the
// SBA-200's i960 does in hardware). Callers that retain the payload must
// copy it.
func (r *Reassembler) Push(c Cell) (payload []byte, done bool, err error) {
	if c.Header.VC() != r.vc {
		return nil, false, fmt.Errorf("atm: cell for VC %v pushed to reassembler for %v", c.Header.VC(), r.vc)
	}
	if !r.active {
		r.buf = r.buf[:0]
	}
	if len(r.buf) == maxPDUBytes {
		r.active = false
		r.dropped++
		return nil, false, ErrLength
	}
	r.buf = append(r.buf, c.Payload[:]...)
	r.active = true
	if !c.Header.EndOfFrame() {
		return nil, false, nil
	}
	pdu := r.buf
	r.active = false
	tr := pdu[len(pdu)-trailerSize:]
	n := int(binary.BigEndian.Uint16(tr[2:]))
	wantCRC := binary.BigEndian.Uint32(tr[4:])
	need := CellCount(n) * PayloadSize
	if len(pdu) < need {
		r.dropped++
		return nil, false, ErrLength
	}
	skip := len(pdu) - need
	pdu = pdu[skip:]
	if aal5crc32(pdu[:len(pdu)-4]) != wantCRC {
		r.dropped++
		return nil, false, ErrCRC
	}
	if skip > 0 {
		r.dropped++ // the earlier frame whose end-of-frame cell was lost
	}
	return pdu[:n], true, nil
}

// Reassemble is a convenience that reassembles a complete, ordered cell
// slice into one payload.
func Reassemble(vc VC, cells []Cell) ([]byte, error) {
	r := NewReassembler(vc)
	for i, c := range cells {
		payload, done, err := r.Push(c)
		if err != nil {
			return nil, err
		}
		if done {
			if i != len(cells)-1 {
				return nil, fmt.Errorf("atm: frame ended at cell %d of %d", i, len(cells))
			}
			return payload, nil
		}
	}
	return nil, ErrNoFrame
}
