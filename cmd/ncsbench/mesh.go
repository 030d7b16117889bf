package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mts"
	"repro/internal/transport"
)

// The mesh experiment drives the real channel layer (no virtual time): two
// NCS processes over the in-process transport, meshChans go-back-N
// channels per direction, bidirectional traffic. It exists so the sweep
// shapes BenchmarkScaleMesh measures are reproducible by hand:
//
//	ncsbench -experiment mesh                      # balanced placement
//	ncsbench -experiment mesh -laneskew            # every channel on lane 0
//	ncsbench -experiment mesh -laneskew -weights 6,1
//
// -laneskew routes every channel to lane 0 via Config.LaneHash: one hot
// lane serves all six channels while the other three idle, and nothing
// moves them (placement is fixed at open). -weights is a comma-separated
// list of DRR weights assigned to the channels round-robin (default:
// priority+1).
const (
	meshChans   = 6
	meshMsgs    = 4000
	meshPayload = 8 << 10
)

func mesh(skew bool, weightSpec string) {
	weights, err := parseWeights(weightSpec)
	if err != nil {
		fmt.Printf("mesh: %v\n", err)
		return
	}

	mem := transport.NewMem()
	procs := make([]*core.Proc, 2)
	for i := range procs {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("mesh%d", i), IdleTimeout: time.Minute})
		// Four lanes regardless of GOMAXPROCS: the experiment exists to
		// show the lane schedulers, not to measure this host.
		cfg := core.Config{
			ID: core.ProcID(i), RT: rt, Endpoint: mem.Attach(core.ProcID(i), rt),
			Lanes: 4,
		}
		if skew {
			cfg.LaneHash = func(core.ProcID) int { return 0 }
		}
		procs[i] = core.New(cfg)
	}

	chans := [2][]*core.Channel{}
	for side := 0; side < 2; side++ {
		peer := core.ProcID(1 - side)
		for i := 0; i < meshChans; i++ {
			cfg := core.ChannelConfig{
				ID:       core.ChannelID(i + 1),
				Priority: i % core.NumChannelPriorities,
				Error:    core.NewGoBackN(8, 25*time.Millisecond),
			}
			if len(weights) > 0 {
				cfg.Weight = weights[i%len(weights)]
			}
			chans[side] = append(chans[side], procs[side].Open(peer, cfg))
		}
	}
	// Threads per side in TCreate order tx0, rx0, tx1, rx1, ...: channel
	// i's receiver is user thread 2i+1 on the peer.
	for side := 0; side < 2; side++ {
		for i := 0; i < meshChans; i++ {
			c := chans[side][i]
			to := 2*i + 1
			procs[side].TCreate(fmt.Sprintf("tx%d", i), mts.PrioDefault, func(t *core.Thread) {
				buf := make([]byte, meshPayload)
				for k := 0; k < meshMsgs; k++ {
					c.SendTagged(t, k, to, buf)
				}
			})
			procs[side].TCreate(fmt.Sprintf("rx%d", i), mts.PrioDefault, func(t *core.Thread) {
				buf := make([]byte, meshPayload)
				for k := 0; k < meshMsgs; k++ {
					c.RecvInto(t, buf, core.Any)
				}
			})
		}
	}

	start := time.Now()
	done := make(chan struct{}, len(procs))
	for _, p := range procs {
		p := p
		go func() { p.Start(); done <- struct{}{} }()
	}
	for range procs {
		<-done
	}
	elapsed := time.Since(start)

	fmt.Printf("Mesh — 2 procs x %d GBN channels/direction, %d x %d KB each way (lanes=%d, skew=%v)\n",
		meshChans, meshMsgs, meshPayload>>10, procs[0].Lanes(), skew)
	fmt.Printf("%-8s %4s %6s %8s %10s %9s %9s\n",
		"channel", "prio", "weight", "msgs", "MB/s", "piggy", "standal.")
	var bytes int64
	for i := 0; i < meshChans; i++ {
		var s core.ChannelStats
		for side := 0; side < 2; side++ {
			cs := chans[side][i].Stats()
			s.Sent += cs.Sent
			s.BytesSent += cs.BytesSent
			s.CtrlPiggybacked += cs.CtrlPiggybacked
			s.CtrlStandalone += cs.CtrlStandalone
		}
		bytes += s.BytesSent
		fmt.Printf("%-8d %4d %6d %8d %10.1f %9d %9d\n",
			i+1, i%core.NumChannelPriorities, chans[0][i].Stats().Weight,
			s.Sent, float64(s.BytesSent)/1e6/elapsed.Seconds(),
			s.CtrlPiggybacked, s.CtrlStandalone)
	}
	fmt.Printf("aggregate: %.1f MB/s in %v\n\n", float64(bytes)/1e6/elapsed.Seconds(), elapsed.Round(time.Millisecond))

	fmt.Printf("%-12s %6s %6s %10s %10s\n",
		"lane", "chans", "piggy%", "coalesced", "drr_rnds")
	for side := 0; side < 2; side++ {
		for _, ls := range procs[side].LaneStats() {
			fmt.Printf("proc%d/lane%-2d %5d %6.1f %10d %10d\n",
				side, ls.Lane, ls.Channels, 100*ls.PiggyShare,
				ls.CtrlCoalesced, ls.DRRRounds)
		}
	}
}

// parseWeights turns "6,2,1" into DRR weights; empty means defaults.
func parseWeights(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -weights entry %q (want positive integers)", f)
		}
		out = append(out, w)
	}
	return out, nil
}
