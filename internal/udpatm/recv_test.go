package udpatm

import (
	"net"
	"sync"
	"testing"

	"repro/internal/atm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rxEndpoint builds a receive-only endpoint for proc on a network that also
// registers peers — no socket and no goroutines, so tests drive
// recvDatagram directly, exactly as readLoop would.
func rxEndpoint(proc transport.ProcID, peers ...transport.ProcID) *Endpoint {
	n := NewNetwork()
	e := &Endpoint{
		net:   n,
		proc:  proc,
		rt:    newRT("rx"),
		reasm: make(map[atm.VC]*atm.Reassembler),
		asm:   make(map[atm.VC]*wire.Assembler),
	}
	n.endpoints[proc] = e
	for _, p := range peers {
		n.endpoints[p] = &Endpoint{net: n, proc: p}
	}
	return e
}

// trainFor serializes m through the sender's own framing (enqueueFrames)
// and returns its AAL5 frames laid end to end: the cell train the writer
// puts in one datagram.
func trainFor(t testing.TB, m *transport.Message) []byte {
	e := &Endpoint{proc: m.From, txByVC: make(map[atm.VC]*vcTx)}
	e.txCond = sync.NewCond(&e.txMu)
	e.spaceCond = sync.NewCond(&e.txMu)
	if err := e.enqueueFrames(m, &net.UDPAddr{}); err != nil {
		t.Fatal(err)
	}
	var train []byte
	for _, q := range e.queues {
		for q.frames.Size() > 0 {
			fb := q.frames.Pop()
			train = append(train, fb.B...)
			wire.PutBuf(fb)
		}
	}
	return train
}

// TestUnknownVCAllocatesNothing: a cell on a VC no registered peer sends
// to this endpoint on — an unknown source, or another endpoint's
// destination — is a bad cell, and no per-VC receive state is created.
func TestUnknownVCAllocatesNothing(t *testing.T) {
	e := rxEndpoint(1, 0)
	for _, vc := range []atm.VC{
		VCForChan(7, 1, 0), // source not on the network
		VCForChan(0, 2, 3), // registered source, other destination
		{VPI: 0, VCI: 5},   // below the VCI mesh
	} {
		cells, err := atm.AppendCells(nil, vc, []byte("stray"))
		if err != nil {
			t.Fatal(err)
		}
		e.recvDatagram(cells)
	}
	if len(e.reasm) != 0 || len(e.asm) != 0 {
		t.Fatalf("stray cells allocated receive state: %d reassemblers, %d assemblers", len(e.reasm), len(e.asm))
	}
	if e.BadCells() != 3 {
		t.Fatalf("BadCells = %d, want 3", e.BadCells())
	}
	// A real message from the registered peer still gets through.
	e.recvDatagram(trainFor(t, &transport.Message{From: 0, To: 1, Channel: 4, Data: []byte("hello")}))
	if len(e.reasm) != 1 || len(e.asm) != 1 {
		t.Fatalf("legit VC: %d reassemblers, %d assemblers, want 1 and 1", len(e.reasm), len(e.asm))
	}
	if e.BadCells() != 3 {
		t.Fatalf("legit message counted as bad: BadCells = %d", e.BadCells())
	}
}

// TestOversizeChunkDropped: a reassembled AAL5 frame longer than any chunk
// the sender emits (MaxChunk plus the chunk header) is dropped before it
// reaches chunk assembly, which bounds one message at MaxMessage.
func TestOversizeChunkDropped(t *testing.T) {
	e := rxEndpoint(1, 0)
	vc := VCForChan(0, 1, 0)
	cells, err := atm.AppendCells(nil, vc, make([]byte, wire.ChunkHeaderSize+MaxChunk+1))
	if err != nil {
		t.Fatal(err)
	}
	e.recvDatagram(cells)
	if e.BadCells() != 1 {
		t.Fatalf("BadCells = %d, want 1", e.BadCells())
	}
	if len(e.asm) != 0 {
		t.Fatalf("oversize chunk reached chunk assembly (%d assemblers)", len(e.asm))
	}
	// The largest chunk the sender emits is accepted.
	full := make([]byte, MaxChunk)
	e.recvDatagram(trainFor(t, &transport.Message{From: 0, To: 1, Data: full[:MaxChunk-wire.HeaderSize]}))
	if e.BadCells() != 1 || len(e.asm) != 1 {
		t.Fatalf("full-size chunk: BadCells = %d, %d assemblers", e.BadCells(), len(e.asm))
	}
}

// FuzzRecvDatagram feeds arbitrary datagrams to the receive path: it must
// never panic, and per-VC state must stay within known peers × 256
// channels. Seeds are real cell trains from the sender's framing.
func FuzzRecvDatagram(f *testing.F) {
	for _, m := range []*transport.Message{
		{From: 0, To: 1, Tag: 3, Data: []byte("ping")},
		{From: 2, To: 1, Channel: 9, Tag: -2, Data: wire.AppendUint32(nil, 17)},
		{From: 0, To: 1, Channel: 1, Data: make([]byte, 2*MaxChunk+100)},
	} {
		f.Add(trainFor(f, m))
	}
	const peers = 3 // the endpoint itself and two registered peers
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > readBufSize {
			b = b[:readBufSize] // readLoop never sees a longer datagram
		}
		e := rxEndpoint(1, 0, 2)
		e.recvDatagram(b)
		if len(e.reasm) > peers*256 || len(e.asm) > peers*256 {
			t.Fatalf("per-VC state grew to %d reassemblers, %d assemblers", len(e.reasm), len(e.asm))
		}
	})
}
