package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
)

// collective-vmesh: a 16-proc core.NewVirtualMesh where every round is a
// Group.Barrier plus a 4 KB binomial-tree Group.BcastInto with the root
// rotating; one op is one round, timed on member 0. It exercises the
// collective trees, lanes/DRR/rebalancer across 16 peers and the sim
// scheduler, all on one goroutine, so the wall-clock figures measure the
// program rather than the OS scheduler. Mem and udpatm do no work here.

const (
	vmProcs   = 16
	vmPayload = 4 << 10
	vmBodies  = 16 // distinct seeded bodies cycled through
	vmHeader  = 16 // continue flag, round number; the body follows
)

type vmRun struct {
	setup    time.Duration
	lanes    int
	timeline string
	rounds   int64 // rounds measured
	// lane totals and virtual time at window open/close.
	drr, migrations, switches [2]int64
	virt                      [2]time.Duration
}

func vmBodiesFor(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, vmBodies)
	for i := range out {
		b := make([]byte, vmPayload)
		rng.Read(b)
		out[i] = b
	}
	return out
}

// vmeshOnce builds a fresh mesh, opens channel 1 between every member pair
// through the SVC handshake and completes round 0 (the timed setup); with m
// non-nil it then runs rounds for o.seconds (or o.rounds rounds) into m.
func vmeshOnce(o opts, bodies [][]byte, m *meter, tk *track, fail *failures) *vmRun {
	r := &vmRun{}
	t0 := time.Now()
	tk.beginOp()
	tk.begin("setup")
	vm := core.NewVirtualMesh(vmProcs, o.seed, core.VirtualMeshConfig{MaxTime: 1000 * time.Hour})
	r.lanes = vm.Procs[0].Lanes()
	members := make([]core.Addr, vmProcs)
	for i := range members {
		members[i] = core.Addr{Proc: core.ProcID(i)}
	}
	round0 := make([]time.Time, vmProcs)
	// Shared by the member threads, which the engine runs one at a time:
	// member 0 opens the window, the round's root decides whether it is
	// the last.
	measuring, startRound := false, 0
	var warmEnd, deadline time.Time
	last := func(round int) bool {
		switch {
		case m == nil:
			return true
		case !measuring:
			return false
		case o.rounds > 0:
			return round-startRound+1 >= o.rounds
		default:
			return !time.Now().Before(deadline)
		}
	}
	lanes := func(k int) {
		r.drr[k], r.migrations[k], r.switches[k] = 0, 0, 0
		for _, p := range vm.Procs {
			r.switches[k] += int64(p.RT().Switches())
			for _, ls := range p.LaneStats() {
				r.drr[k] += ls.DRRRounds
				r.migrations[k] += ls.MigratedIn
			}
		}
		r.virt[k] = vm.Now()
	}
	for i, p := range vm.Procs {
		i, p := i, p
		p.OnException(fail.exceptionHandler(fmt.Sprintf("proc %d", i)))
		p.TCreate(fmt.Sprintf("member%d", i), mts.PrioDefault, func(th *core.Thread) {
			var t *track
			if i == 0 {
				t = tk
			}
			for j := i + 1; j < vmProcs; j++ {
				t.begin("core.signal_opencall")
				_, err := p.OpenCall(th, core.ProcID(j), core.CallConfig{ID: 1})
				t.end()
				if err != nil {
					fail.add(fmt.Errorf("proc %d OpenCall to %d: %w", i, j, err))
				}
			}
			// A barrier on the default channels: past it every call has
			// been answered, so channel 1 is open at both ends everywhere.
			p.NewGroup(members, core.GroupConfig{}).Barrier(th)
			g := p.NewGroup(members, core.GroupConfig{Channel: 1})
			buf := make([]byte, vmPayload)
			for round := 0; ; round++ {
				var op *track
				if i == 0 && m != nil && round > 0 {
					now := time.Now()
					if round == 1 {
						warmEnd = now.Add(warmup)
					}
					if !measuring && (o.rounds > 0 || !now.Before(warmEnd)) {
						lanes(0)
						m.start()
						measuring, startRound = true, round
						deadline = m.t0.Add(o.seconds)
					}
					if measuring && m.tracing() {
						op = t
						op.beginOp()
						op.begin("op")
					}
				}
				start := time.Now()
				root := round % vmProcs
				op.begin("core.coll_barrier")
				g.Barrier(th)
				op.end()
				if i == root {
					copy(buf, bodies[round%vmBodies])
					buf[0] = 1
					if last(round) {
						buf[0] = 0
					}
					binary.BigEndian.PutUint64(buf[8:], uint64(round))
				}
				op.begin("core.coll_bcast")
				n := g.BcastInto(th, root, buf)
				op.end()
				op.end() // op
				now := time.Now()
				if n != vmPayload || binary.BigEndian.Uint64(buf[8:]) != uint64(round) ||
					!bytes.Equal(buf[vmHeader:n], bodies[round%vmBodies][vmHeader:]) {
					fail.add(fmt.Errorf("member %d: round %d bcast content is wrong", i, round))
				}
				if round == 0 {
					round0[i] = now
					if i == 0 {
						t.end() // setup
					}
				}
				if i == 0 && measuring {
					r.rounds++
					m.done(now.Sub(start), (vmProcs-1)*vmPayload, now)
				}
				if buf[0] == 0 {
					if i == 0 && measuring {
						m.stop()
						lanes(1)
					}
					return
				}
			}
		})
	}
	vm.Run()
	end := round0[0]
	for _, at := range round0 {
		if at.After(end) {
			end = at
		}
	}
	r.setup = end.Sub(t0)
	r.timeline = vm.TimelineHash()
	return r
}

func runVMesh(o opts) (*result, error) {
	fail := &failures{}
	bodies := vmBodiesFor(o.seed)
	heap := newHeapSampler()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	m := newMeter(o.trace, heap)
	var r *vmRun
	setups, err := withSetups(o, heap, func(i int) (time.Duration, error) {
		return vmeshOnce(o, bodies, nil, trackOf(tr, fmt.Sprintf("setup%d", i)), fail).setup, nil
	}, func() (time.Duration, error) {
		r = vmeshOnce(o, bodies, m, trackOf(tr, "member0"), fail)
		return r.setup, nil
	})
	if err != nil {
		return nil, err
	}

	res := newResult(o, m, setups, fail, tr, r.rounds, "virtual NYNET frame mesh (modeled fabric, wall-clock host work)", r.lanes)
	res.env["procs"] = vmProcs
	res.env["timeline_hash"] = r.timeline
	if o.trace {
		ops := float64(m.ops)
		lm := layerMetrics{
			switchesPerOp:   float64(r.switches[1]-r.switches[0]) / ops,
			drrPerOp:        float64(r.drr[1]-r.drr[0]) / ops,
			migrations:      float64(r.migrations[1] - r.migrations[0]),
			modelUsPerOp:    float64(r.virt[1]-r.virt[0]) / 1e3 / ops,
			overheadPct:     m.traceOverhead(),
			sideLoopPayload: vmPayload,
		}
		res.perLayer = lm.metrics(tr)
	}
	return res, nil
}
