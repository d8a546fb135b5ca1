package fabric

import (
	"encoding/binary"
	"testing"

	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// codecNet builds the small one-shard fabric the codec tests decode
// against: a K=4 Clos (reach protocol) or a Space Shuffle graph (no reach
// mail).
func codecNet(t testing.TB, clos bool) (*parsim.Engine, *Net) {
	t.Helper()
	name := "sshuffle"
	if clos {
		name = "clos"
	}
	g, err := topo.ByName(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := parsim.New(parsim.Config{Shards: 1, Lookahead: sim.Microsecond})
	n, err := New(eng, DefaultConfig(10e9, sim.Microsecond, 1), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

// reachPayload hand-builds a MailReach payload: spine, port, a message
// count, then cnt well-formed messages for chunk 0.
func reachPayload(spine, port, cnt uint64, msgs int) []byte {
	buf := binary.AppendUvarint(nil, spine)
	buf = binary.AppendUvarint(buf, port)
	buf = binary.AppendUvarint(buf, cnt)
	for i := 0; i < msgs; i++ {
		buf = append(buf, 0, 0, 0)
		buf = append(buf, make([]byte, 8*len(reach.Message{}.Bits))...)
	}
	return buf
}

// cellPayload hand-builds a MailCell payload.
func cellPayload(size, dst uint64) []byte {
	buf := []byte{0}
	buf = binary.AppendUvarint(buf, size)
	buf = binary.AppendUvarint(buf, dst)
	return binary.AppendVarint(buf, 7)
}

// TestDecodeMailRejectsMalformed: peer bytes that used to decode and then
// panic later in the run — a huge reach count, a reach port beyond the
// spine's down ports, a cell destination beyond the edge count — are
// decode errors now.
func TestDecodeMailRejectsMalformed(t *testing.T) {
	_, n := codecNet(t, true)
	reachLane := int32(2 * n.NumLinks())
	for _, c := range []struct {
		name    string
		kind    byte
		lane    int32
		payload []byte
	}{
		{"huge reach count", MailReach, reachLane, reachPayload(0, 0, 1<<62, 1)},
		{"truncated reach count", MailReach, reachLane, []byte{0, 0, 0x80}},
		{"reach port out of range", MailReach, reachLane, reachPayload(0, 999, 1, 1)},
		{"reach spine out of range", MailReach, reachLane, reachPayload(99, 0, 1, 1)},
		{"reach on a link lane", MailReach, 0, reachPayload(0, 0, 1, 1)},
		{"cell dst out of range", MailCell, 0, cellPayload(512, 1000)},
		{"cell dst truncating int32", MailCell, 0, cellPayload(512, 1<<32)},
		{"cell size overflowing int", MailCell, 0, cellPayload(1<<63, 0)},
		{"cell on a reach lane", MailCell, reachLane, cellPayload(512, 0)},
		{"unknown kind", 9, 0, nil},
	} {
		if _, _, err := n.DecodeMail(c.kind, c.lane, c.payload); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	_, g := codecNet(t, false)
	if _, _, err := g.DecodeMail(MailReach, int32(2*g.NumLinks()), reachPayload(0, 0, 1, 1)); err == nil {
		t.Error("a graph without the reach protocol accepted reach mail")
	}
}

// FuzzDecodeMail: for any kind, lane and payload, DecodeMail returns an
// error or an action that runs to completion on the replica — never a
// panic, at decode time or later.
func FuzzDecodeMail(f *testing.F) {
	f.Add(true, MailCell, int32(0), cellPayload(512, 3))
	f.Add(false, MailCell, int32(5), cellPayload(512, 1))
	f.Add(true, MailReach, int32(64), reachPayload(1, 2, 1, 1))
	f.Add(true, MailReach, int32(64), reachPayload(0, 0, 1<<62, 1))
	f.Add(true, MailReach, int32(64), reachPayload(0, 999, 1, 1))
	f.Add(true, MailCell, int32(0), cellPayload(512, 1000))
	f.Add(false, MailReach, int32(40), reachPayload(0, 0, 1, 1))
	f.Add(true, MailReach, int32(64), []byte("\x00\x00\x80\x80\x80\x80\xe0\xe0\xe0\x80\x8000"))
	f.Fuzz(func(t *testing.T, clos bool, kind byte, lane int32, payload []byte) {
		eng, n := codecNet(t, clos)
		act, arg, err := n.DecodeMail(kind, lane, payload)
		if err != nil {
			return
		}
		if act == nil {
			t.Fatal("nil action without an error")
		}
		act.Act(arg)
		eng.Run(eng.Now() + sim.Millisecond)
	})
}
