package atm

import (
	"bytes"
	"testing"
)

// TestReassemblerCapsRunawayFrame: a VC whose end-of-frame cell never
// comes (lost, or a hostile sender) must not grow the reassembly buffer
// past the largest legal PDU. 1,400 non-EOF cells overflow the 1366-cell
// cap once — the partial frame is dropped, counted and reported as
// ErrLength — and the next valid PDU still reassembles.
func TestReassemblerCapsRunawayFrame(t *testing.T) {
	vc := VC{VCI: 21}
	r := NewReassembler(vc)
	junk := Cell{Header: Header{VCI: vc.VCI}}
	for i := range junk.Payload {
		junk.Payload[i] = byte(i)
	}
	overflows := 0
	for i := 0; i < 1400; i++ {
		_, done, err := r.Push(junk)
		if done {
			t.Fatalf("cell %d completed a frame", i)
		}
		if err == ErrLength {
			overflows++
		} else if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if len(r.buf) > maxPDUBytes {
			t.Fatalf("cell %d: buffer at %d octets, cap %d", i, len(r.buf), maxPDUBytes)
		}
	}
	if overflows != 1 || r.Dropped() != 1 {
		t.Fatalf("overflows = %d, dropped = %d; want 1 and 1", overflows, r.Dropped())
	}

	payload := bytes.Repeat([]byte("ncs"), 700)
	cells, _ := Segment(vc, payload)
	var got []byte
	for i, c := range cells {
		p, done, err := r.Push(c)
		if err != nil {
			t.Fatalf("valid PDU cell %d: %v", i, err)
		}
		if done {
			got = p
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("valid PDU after the runaway frame: got %d bytes, want %d", len(got), len(payload))
	}
	// The runaway frame's leftover cells ahead of the valid PDU were one
	// more broken frame.
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
}

// TestReassemblerAcceptsMaxPDU: the cap admits the largest legal PDU.
func TestReassemblerAcceptsMaxPDU(t *testing.T) {
	vc := VC{VCI: 22}
	payload := make([]byte, MaxPDU)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cells, _ := Segment(vc, payload)
	if len(cells)*PayloadSize != maxPDUBytes {
		t.Fatalf("max PDU is %d cells, cap is %d octets", len(cells), maxPDUBytes)
	}
	got, err := Reassemble(vc, cells)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("max PDU: err=%v, %d bytes", err, len(got))
	}
}

// TestReassemblerLostEOFCostsOneFrame: when a frame's end-of-frame cell is
// lost, the next frame's trailer still delimits it: the earlier frame is
// dropped and the next one delivered.
func TestReassemblerLostEOFCostsOneFrame(t *testing.T) {
	vc := VC{VCI: 23}
	first, _ := Segment(vc, bytes.Repeat([]byte{1}, 300))
	second, _ := Segment(vc, bytes.Repeat([]byte{2}, 200))
	r := NewReassembler(vc)
	var got []byte
	for _, c := range append(first[:len(first)-1], second...) {
		p, done, err := r.Push(c)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			got = p
		}
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{2}, 200)) || r.Dropped() != 1 {
		t.Fatalf("got %d bytes, dropped %d; want the second frame and 1 drop", len(got), r.Dropped())
	}
}

// FuzzReassemble decodes arbitrary bytes as 53-octet cells, replayed
// repeat+1 times so short inputs can still drive a frame past the cap, and
// pushes every valid cell through one reassembler. It must never panic,
// never buffer more than the largest legal PDU, and never deliver more than
// MaxPDU octets.
func FuzzReassemble(f *testing.F) {
	vc := VC{VPI: 1, VCI: 77}
	for _, n := range []int{0, 1, 40, 41, 100, 500} {
		var b []byte
		b, _ = AppendCells(b, vc, bytes.Repeat([]byte{byte(n)}, n))
		f.Add(b, uint16(0))
	}
	mid, _ := AppendCells(nil, vc, make([]byte, 200))
	f.Add(mid[:CellSize], uint16(1400)) // one non-EOF cell, runaway
	f.Fuzz(func(t *testing.T, b []byte, repeat uint16) {
		r := NewReassembler(vc)
		rounds := int(repeat%2048) + 1
		for round := 0; round < rounds; round++ {
			for off := 0; off+CellSize <= len(b); off += CellSize {
				c, err := DecodeCell(b[off : off+CellSize])
				if err != nil {
					continue
				}
				c.Header.VPI, c.Header.VCI = vc.VPI, vc.VCI
				p, done, _ := r.Push(c)
				if len(r.buf) > maxPDUBytes {
					t.Fatalf("buffer at %d octets, cap %d", len(r.buf), maxPDUBytes)
				}
				if done && len(p) > MaxPDU {
					t.Fatalf("delivered %d octets", len(p))
				}
			}
		}
	})
}
