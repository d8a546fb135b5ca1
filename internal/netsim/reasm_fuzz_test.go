package netsim

import (
	"testing"

	"stardust/internal/sim"
)

// FuzzReassembly drives the transport's destination reassembly path
// (sdEgress, sstream.deliver) on a one-shard engine with adversarial cell
// schedules: the fuzz input programs, per cell, whether it is dropped or
// how long it is delayed, producing arbitrary arrival orders, skews and
// losses across interleaved flows. The invariants:
//
//   - no duplicate deliveries, and per-VOQ ship order is preserved;
//   - every shipped packet's fate is settled exactly once — delivered or
//     discarded by the reassembly timer (delivered + timeouts == shipped);
//   - cell conservation (delivered + dropped == sent);
//   - no leaked reassembly state: every stream's flight ring drains empty;
//   - credit conservation (CheckInvariants) and nothing left in flight.

// scriptedFabric is a trunk fabric whose crossing is driven by a byte
// program: each cell consumes one op. op ≡ 0 (mod 8) loses the cell;
// anything else hands it to the destination adapter after (op mod 32) ·
// 7µs, so later cells routinely overtake earlier ones and whole packets
// interleave at the destination.
type scriptedFabric struct {
	*TrunkFabric
	s       *sim.Simulator
	prog    []byte
	i       int
	sent    uint64
	dropped uint64
}

// Inject implements CellFabric.
func (f *scriptedFabric) Inject(c *Packet, srcFA, dstFA int) {
	f.sent++
	var op byte
	if len(f.prog) > 0 {
		op = f.prog[f.i%len(f.prog)]
		f.i++
	}
	if op%8 == 0 {
		f.dropped++
		c.Release()
		return
	}
	delay := sim.Time(op%32) * 7 * sim.Microsecond
	// Every trunk route ends in the transport's egress of its destination.
	route := f.routes[srcFA*f.numFA+dstFA]
	egress := route[len(route)-1]
	f.s.After(delay, func() { egress.Receive(c) })
}

func FuzzReassembly(f *testing.F) {
	f.Add([]byte{1})                                 // every cell delivered, fixed small skew
	f.Add([]byte{0})                                 // every cell lost: pure timer-discard path
	f.Add([]byte{0, 9, 31, 2, 17, 8, 5, 255, 64, 3}) // mixed drops and heavy reordering
	f.Add([]byte{9, 1, 25, 1, 9, 1})                 // loss-free, oscillating skew
	f.Fuzz(func(t *testing.T, prog []byte) {
		cfg := DefaultStardust(10e9, 2, sim.Microsecond)
		eng, trunk := oneShardTrunk(t, cfg, 2)
		s := eng.Shard(0).Sim()
		fab := &scriptedFabric{TrunkFabric: trunk, s: s, prog: prog}
		n, err := NewStardustNet(fab, cfg, 4, 2)
		if err != nil {
			t.Fatal(err)
		}

		// Interleaved flows, including a same-FA pair, with sizes drawn
		// from the program so fragmentation counts vary.
		flows := [][2]int{{0, 2}, {1, 3}, {3, 0}, {0, 1}}
		sizeAt := func(i int) int {
			op := byte(7)
			if len(prog) > 0 {
				op = prog[(i*13)%len(prog)]
			}
			return 100 + (int(op)*937)%11000
		}
		const perFlow = 12
		type recF struct {
			last      int64
			delivered uint64
		}
		recs := make([]recF, len(flows))
		var shipped int
		for fi, fl := range flows {
			fi := fi
			route := append(n.Route(fl[0], fl[1]), HandlerFunc(func(p *Packet) {
				r := &recs[fi]
				if p.Seq <= r.last {
					t.Errorf("flow %d: seq %d delivered after %d (duplicate or reorder)", fi, p.Seq, r.last)
				}
				r.last = p.Seq
				r.delivered++
				p.Release()
			}))
			for i := 0; i < perFlow; i++ {
				i := i
				shipped++
				s.At(sim.Time(i*len(flows)+fi)*3*sim.Microsecond, func() {
					p := NewPacket()
					p.Size = sizeAt(fi*perFlow + i)
					p.Seq = int64(i + 1)
					p.SetRoute(route)
					p.SendOn()
				})
			}
		}

		// Run far past the last injection, the maximum scripted skew
		// (31·7µs) and the reassembly timeout, so every fate settles.
		eng.Run(20 * sim.Millisecond)

		var delivered uint64
		for _, r := range recs {
			delivered += r.delivered
		}
		if delivered+n.ReasmTimeouts() != uint64(shipped) {
			t.Fatalf("packet fates: %d delivered + %d timed out != %d shipped",
				delivered, n.ReasmTimeouts(), shipped)
		}
		if n.CellsDelivered()+fab.dropped != n.CellsSent() {
			t.Fatalf("cell leak: %d delivered + %d dropped != %d sent",
				n.CellsDelivered(), fab.dropped, n.CellsSent())
		}
		if fab.sent != n.CellsSent() {
			t.Fatalf("fabric saw %d cells, net sent %d", fab.sent, n.CellsSent())
		}
		// No leaked reassembly state: every VOQ's in-order stream drained.
		for key, v := range n.voqs {
			if v.stream.flight.len() != 0 {
				t.Fatalf("voq %v leaked %d reassembly states in its flight ring", key, v.stream.flight.len())
			}
			if v.q.len() != 0 {
				t.Fatalf("voq %v still holds %d queued packets", key, v.q.len())
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if f := n.InFlight(); f != 0 {
			t.Fatalf("%d packets still in flight at drain", f)
		}
	})
}
