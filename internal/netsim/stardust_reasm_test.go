package netsim

import (
	"testing"

	"stardust/internal/sim"
)

// blackholeFabric is a fabric crossing that loses every cell — the
// worst-case failed-link scenario where no cell of a packet survives.
type blackholeFabric struct{ dropped uint64 }

// Receive implements Handler.
func (b *blackholeFabric) Receive(c *Packet) {
	b.dropped++
	c.Release()
}

// A packet whose cells are ALL lost must still be discarded by the
// reassembly timer even though no later completion ever calls into the
// delivery path: the timer itself has to fire (§4.1).
func TestReasmTimerFiresWithoutLaterCompletions(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	n, err := NewStardustNet(s, cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	bh := &blackholeFabric{}
	n.fabric = bh

	var got Counter
	route := append(n.Route(0, 2), &got)
	p := NewPacket()
	p.Size = 9000
	p.SetRoute(route)
	p.SendOn()

	// Let credits flow and the packet ship into the black hole, then run
	// well past the reassembly timeout with NO other traffic.
	s.RunUntil(10*sim.Millisecond + 10*cfg.ReasmTimeout)
	if bh.dropped == 0 {
		t.Fatal("packet never shipped as cells")
	}
	if got.Packets != 0 {
		t.Fatal("a fully-lost packet was delivered")
	}
	if n.ReasmTimeouts != 1 {
		t.Fatalf("ReasmTimeouts = %d, want 1 (timer-driven discard)", n.ReasmTimeouts)
	}
	if n.CellsSent != bh.dropped {
		t.Fatalf("black hole swallowed %d of %d cells sent", bh.dropped, n.CellsSent)
	}
}

// With the fluid trunk (no fabric installed) nothing is lost and the
// timer must never discard anything.
func TestReasmTimerIdleOnHealthyPath(t *testing.T) {
	s := sim.New()
	cfg := DefaultStardust(10e9, 2, sim.Microsecond)
	n, err := NewStardustNet(s, cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var got Counter
	route := append(n.Route(0, 2), &got)
	for i := 0; i < 5; i++ {
		p := NewPacket()
		p.Size = 9000
		p.SetRoute(route)
		p.SendOn()
	}
	s.RunUntil(10*sim.Millisecond + 10*cfg.ReasmTimeout)
	if got.Packets != 5 {
		t.Fatalf("delivered %d of 5", got.Packets)
	}
	if n.ReasmTimeouts != 0 {
		t.Fatalf("healthy path discarded %d packets", n.ReasmTimeouts)
	}
}
