package core

import (
	"fmt"

	"repro/internal/mts"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cross-process barrier (paper §3.1, the synchronization primitive class).
//
// The protocol is root-collected: every non-root process sends a
// tagBarrier(group, generation) message to the root (group[0]); once the
// root has heard from everyone it sends tagBarrierRel(group, generation)
// back. One thread per process participates — the paper's barrier
// synchronizes processes, not individual threads.
//
// This is the *linear* barrier: every arrival funnels through the root, in
// two serial rounds. It is kept as the process-level primitive (no thread
// addressing needed) and as the O(N) baseline the scale benches measure
// against; Group.Barrier in coll.go is the logarithmic dissemination
// barrier that phase-synchronized applications should use.
//
// Barrier state is keyed by the group's membership hash, so independent
// groups — including sibling threads of one process synchronizing disjoint
// groups — proceed concurrently. Only re-entering the *same* group while a
// barrier on it is still in flight is an error.

type barrierState struct {
	key      uint32
	gen      uint32
	arrivals int
	waiter   *mts.Thread
	released map[uint32]bool // early releases (root raced ahead)
	arrived  map[uint32]int  // early arrivals at the root
}

// barrierFor returns (creating on first use) the state slot for a group
// key. The table lives for the process: a group's generation counter must
// survive between barriers so early arrivals bank correctly.
func (p *Proc) barrierFor(key uint32) *barrierState {
	if p.bars == nil {
		p.bars = make(map[uint32]*barrierState)
	}
	b := p.bars[key]
	if b == nil {
		b = &barrierState{
			key:      key,
			released: make(map[uint32]bool),
			arrived:  make(map[uint32]int),
		}
		p.bars[key] = b
	}
	return b
}

// groupKey hashes a barrier group's membership (FNV-1a over the ordered
// ProcIDs). All members derive the same key from the same group slice, so
// the key travels in the control payload and demultiplexes concurrent
// barriers onto their own state machines. The key is the group's only
// wire identity: two distinct groups colliding in 32 bits would share a
// state machine — a deliberate tradeoff (one word on the wire against a
// ~2^-32 chance per group pair; applications with many distinct groups at
// that scale should use coll.go's Group, whose identity is positional).
func groupKey(group []ProcID) uint32 {
	h := uint32(2166136261)
	for _, id := range group {
		v := uint32(id)
		for s := 0; s < 32; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 16777619
		}
	}
	return h
}

// Barrier blocks until every process in group has reached it. All
// processes must call Barrier with the same group (same order); group[0]
// is the root. The calling thread parks; sibling threads keep running, and
// sibling threads may concurrently run barriers over *different* groups.
func (t *Thread) Barrier(group []ProcID) {
	p := t.proc
	b := p.barrierFor(groupKey(group))
	if b.waiter != nil {
		panic(fmt.Sprintf("core(proc %d): concurrent Barrier calls on the same group %v", p.cfg.ID, group))
	}
	gen := b.gen
	b.gen++
	root := group[0]
	self := -1
	for i, id := range group {
		if id == p.cfg.ID {
			self = i
		}
	}
	if self < 0 {
		panic(fmt.Sprintf("core(proc %d): not a member of barrier group %v", p.cfg.ID, group))
	}

	if p.cfg.ID == root {
		need := len(group) - 1
		// Count early arrivals already banked for this generation.
		b.arrivals = b.arrived[gen]
		delete(b.arrived, gen)
		if b.arrivals < need {
			b.waiter = t.mt
			p.traceThread(t, trace.Idle)
			for b.arrivals < need {
				t.mt.Park("barrier root")
			}
			b.waiter = nil
			p.traceThread(t, trace.Compute)
		}
		b.arrivals = 0
		// Release everyone.
		for _, id := range group[1:] {
			p.sendCtrl(id, tagBarrierRel, nil, b.key, gen)
		}
		return
	}

	// Non-root: announce arrival, then wait for the release.
	p.sendCtrl(root, tagBarrier, nil, b.key, gen)
	if b.released[gen] {
		delete(b.released, gen)
		return
	}
	b.waiter = t.mt
	p.traceThread(t, trace.Idle)
	for !b.released[gen] {
		t.mt.Park("barrier wait")
	}
	delete(b.released, gen)
	b.waiter = nil
	p.traceThread(t, trace.Compute)
}

// onBarrierMsg routes barrier control traffic (receive system thread) to
// the group's state machine; the payload carries [group key, generation].
func (p *Proc) onBarrierMsg(m *transport.Message) {
	if len(m.Data) < 8 {
		p.exception(fmt.Errorf("short barrier control frame from proc %d", m.From))
		return
	}
	key := wire.Uint32(m.Data)
	gen := wire.Uint32(m.Data[4:])
	p.barrierFor(key).onMessage(p, m.Tag, gen)
}

// onMessage handles one barrier control word in the receive system thread.
func (b *barrierState) onMessage(p *Proc, tag int, gen uint32) {
	switch tag {
	case tagBarrier:
		// Arrival at the root. If the root's thread hasn't entered this
		// generation yet, bank the arrival.
		if b.waiter != nil && gen == b.gen-1 {
			b.arrivals++
			p.cfg.RT.Unblock(b.waiter, false)
			return
		}
		if gen >= b.gen {
			b.arrived[gen]++
			return
		}
		b.arrivals++
	case tagBarrierRel:
		b.released[gen] = true
		if b.waiter != nil {
			p.cfg.RT.Unblock(b.waiter, false)
		}
	}
}
