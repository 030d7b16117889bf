package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// TestAssemblerRefusesIndexWrap: the chunk index is 16 bits, so a message
// may have at most MaxChunks chunks. A last chunk at index 0xFFFF completes
// the message; a non-last one there would wrap the index to 0, so the
// assembler abandons the message with ErrChunkGap, and the stream still
// assembles the next message.
func TestAssemblerRefusesIndexWrap(t *testing.T) {
	push := func(a *Assembler, seq uint32, idx int, last bool) ([]byte, bool, error) {
		c := AppendChunkHeader(nil, ChunkHeader{Seq: seq, Index: uint16(idx), Last: last})
		return a.Push(append(c, byte(idx)))
	}
	var a Assembler
	for i := 0; i < MaxChunks-1; i++ {
		if _, done, err := push(&a, 1, i, false); done || err != nil {
			t.Fatalf("chunk %d: done=%v err=%v", i, done, err)
		}
	}
	msg, done, err := push(&a, 1, MaxChunks-1, true)
	if err != nil || !done || len(msg) != MaxChunks {
		t.Fatalf("last chunk at index 0xFFFF: done=%v err=%v len=%d, want a %d-byte message", done, err, len(msg), MaxChunks)
	}

	for i := 0; i < MaxChunks-1; i++ {
		if _, _, err := push(&a, 2, i, false); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	if _, done, err := push(&a, 2, MaxChunks-1, false); done || err != ErrChunkGap {
		t.Fatalf("non-last chunk at index 0xFFFF: done=%v err=%v, want ErrChunkGap", done, err)
	}
	if a.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped())
	}
	// A wrapped index 0 of the same sequence must not resume the message.
	if _, done, err := push(&a, 2, 0, true); err != nil || !done {
		t.Fatalf("fresh message after the refused one: done=%v err=%v", done, err)
	}
}

// TestCrossChannelOwnerZeroRejected: an owner byte of 0 on another
// channel's frame is an encoding MarshalAppend never produces (0 means the
// frame's own channel there), so the decoder refuses it instead of handing
// the word to the default channel.
func TestCrossChannelOwnerZeroRejected(t *testing.T) {
	m := &Message{From: 1, To: 2, Channel: 5, Credit: 9, HasCredit: true, CreditChan: 7}
	b := m.Marshal()
	got, err := Unmarshal(b)
	if err != nil || got.CreditChan != 7 {
		t.Fatalf("foreign owner 7: err=%v owner=%d", err, got.CreditChan)
	}
	b[len(b)-1] = 0 // the owner byte
	if _, err := Unmarshal(b); err != ErrChanOwner {
		t.Fatalf("owner 0 on channel 5: err = %v, want ErrChanOwner", err)
	}
	// On the default channel's own frame an owner of 0 is simply itself.
	d := &Message{From: 1, To: 2, Channel: 0, Ack: 3, HasAck: true, AckChan: 4}
	b = d.Marshal()
	b[len(b)-1] = 0
	if got, err := Unmarshal(b); err != nil || got.AckChan != 0 {
		t.Fatalf("owner 0 on channel 0: err=%v owner=%d", err, got.AckChan)
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the frame decoder: it must never
// panic, and whatever it accepts must survive Marshal → Unmarshal
// unchanged, byte-stable from the first re-encoding on.
func FuzzUnmarshal(f *testing.F) {
	seeds := []*Message{
		{From: 3, To: 7, FromThread: 1, Tag: 42, Seq: 99, ESeq: 7, Channel: 12, Data: []byte("payload bytes")},
		{From: 1, To: 2, Channel: 9, Credit: 41, HasCredit: true},
		{From: 1, To: 2, Channel: 9, Ack: 17, HasAck: true, Data: []byte{1, 2, 3}},
		{From: 0, To: 1, Channel: 1, Credit: 5, HasCredit: true, CreditChan: 2, Ack: 6, HasAck: true, AckChan: 3},
		{From: 2, To: 0, Channel: 0, Ack: 8, HasAck: true, AckChan: 4},
		{From: -1, To: 5, Tag: -3},
	}
	for _, m := range seeds {
		f.Add(m.Marshal())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc := m.Marshal()
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v (%x)", err, enc)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", m2, m)
		}
		if enc2 := m2.Marshal(); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding not stable: %x vs %x", enc, enc2)
		}
	})
}
