package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mts"
	"repro/internal/transport"
)

// TestDefaultChannelAcksNotMisrouted runs go-back-N data one way on the
// default channel (ID 0) and reverse data on an explicit sibling channel to
// the same peer, so the default channel's acks are pending while sibling
// frames depart on the same lane. The wire cannot name channel 0 as the
// owner of a word riding another channel's frame, so such acks must not
// ride there: misrouted, they would acknowledge the sibling's window and
// leave the default channel retransmitting on a lossless link. A final
// default-channel reply carries the last cumulative ack back on its own
// frame, so no retransmission is legitimate.
func TestDefaultChannelAcksNotMisrouted(t *testing.T) {
	const msgs = 200
	mem := transport.NewMem()
	procs := make([]*Proc, 2)
	for i := 0; i < 2; i++ {
		rt := mts.New(mts.Config{Name: fmt.Sprintf("node%d", i), IdleTimeout: 10 * time.Second})
		procs[i] = New(Config{
			ID: ProcID(i), RT: rt, Endpoint: mem.Attach(ProcID(i), rt),
			Lanes: 2,
			Error: NewGoBackN(8, 100*time.Millisecond),
		})
		procs[i].OnException(func(error) {}) // trailing-ack give-up after peer exit
	}
	a0 := procs[0].Open(1, ChannelConfig{ID: 1, Error: NewGoBackN(8, 100*time.Millisecond)})
	b1 := procs[1].Open(0, ChannelConfig{ID: 1, Error: NewGoBackN(8, 100*time.Millisecond)})

	procs[0].TCreate("tx0", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			th.SendTagged(k, 0, 1, []byte{byte(k)})
		}
		m := th.recvMsgOn(0, msgs, Any, 1)
		m.Release()
	})
	procs[0].TCreate("rx1", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := th.recvMsgOn(1, k, Any, 1)
			m.Release()
		}
	})
	procs[1].TCreate("fwd", mts.PrioDefault, func(th *Thread) {
		for k := 0; k < msgs; k++ {
			m := th.recvMsgOn(0, k, Any, 0)
			m.Release()
			b1.SendTagged(th, k, 1, []byte{byte(k)})
		}
		th.SendTagged(msgs, 0, 0, nil)
	})
	runReal(procs)

	def := procs[0].DefaultChannel(1).Error().(*GoBackN)
	if n := def.Retransmissions(); n != 0 {
		t.Fatalf("default channel retransmitted %d frames on a lossless link (its acks went astray)", n)
	}
	sib := a0.Error().(*GoBackN)
	if n := sib.Retransmissions(); n != 0 {
		t.Fatalf("sibling channel retransmitted %d frames on a lossless link", n)
	}
}
