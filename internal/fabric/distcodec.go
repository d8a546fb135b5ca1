// Distributed support: the wire codec for cross-shard mailbox messages
// and the ownership/report accessors the distributed runtime
// (internal/distsim) aggregates counters through.
//
// A distributed run replicates the whole deterministic model on every
// process and executes only an owned subset of the shards per process, so
// a cross-shard message never needs to carry model objects — only enough
// to rebind the message to the receiver's replica. Exactly two action
// kinds cross shard cuts in a fabric simulation, and both are compact:
//
//   - a cell (*netsim.Packet) in flight on a directed link's propagation
//     lane — the lane IS the directed link index, so the receiver rebinds
//     the decoded cell to its own replica's link route;
//   - a reachability re-advertisement (applyReach) on an FE1's reach
//     lane — spine index, down port and the reach.Message batch (Clos
//     only: the graph control plane runs in barrier controls every
//     replica executes, so nothing of it crosses a cut).
//
// A transport overlay (packets with Flow state, closure actions) cannot
// be rebound to a remote replica; EncodeMail rejects it with a
// deterministic error rather than guessing. DecodeMail treats its input
// as untrusted peer bytes: anything it cannot bind to a valid action on
// this replica is an error, never a panic later in the run.
package fabric

import (
	"encoding/binary"
	"fmt"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
)

// Wire kinds of a cross-shard mail payload.
const (
	MailCell  byte = 1 // *netsim.Packet on a directed link's lane
	MailReach byte = 2 // applyReach on an FE1's reach lane
)

// Cell flag bits.
const (
	cellAck  = 1 << 0
	cellCE   = 1 << 1
	cellEcho = 1 << 2
	cellDown = 1 << 3
)

// EncodeMail serializes one cross-shard message for the wire. It consumes
// the message: an encoded cell is released back to the packet pool, so
// the caller must not touch m.Act afterwards. Messages the codec cannot
// rebind on a remote replica (transport packets with Flow state, unknown
// action types) return an error — the distributed runtime turns that into
// a deterministic "not distributable" failure instead of silent
// corruption.
func (n *Net) EncodeMail(m parsim.Mail) (kind byte, payload []byte, err error) {
	switch a := m.Act.(type) {
	case *netsim.Packet:
		if a.Flow != nil {
			return 0, nil, fmt.Errorf("fabric: cell on lane %d carries transport flow state; the transport overlay is not distributable", m.Lane)
		}
		if int(m.Lane) >= 2*len(n.wiring) {
			return 0, nil, fmt.Errorf("fabric: packet on non-link lane %d is not distributable", m.Lane)
		}
		var flags byte
		if a.Ack {
			flags |= cellAck
		}
		if a.CE {
			flags |= cellCE
		}
		if a.Echo {
			flags |= cellEcho
		}
		if a.Down {
			flags |= cellDown
		}
		buf := make([]byte, 0, 16)
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(a.Size))
		buf = binary.AppendUvarint(buf, uint64(a.Dst))
		buf = binary.AppendVarint(buf, a.Seq)
		a.Release()
		return MailCell, buf, nil
	case applyReach:
		buf := make([]byte, 0, 8+20*len(a.msgs))
		buf = binary.AppendUvarint(buf, uint64(a.spine))
		buf = binary.AppendUvarint(buf, uint64(a.port))
		buf = binary.AppendUvarint(buf, uint64(len(a.msgs)))
		for _, msg := range a.msgs {
			buf = binary.AppendUvarint(buf, uint64(msg.Origin))
			buf = binary.AppendUvarint(buf, uint64(msg.Chunk))
			f := byte(0)
			if msg.Faulty {
				f = 1
			}
			buf = append(buf, f)
			for _, w := range msg.Bits {
				buf = binary.LittleEndian.AppendUint64(buf, w)
			}
		}
		return MailReach, buf, nil
	default:
		return 0, nil, fmt.Errorf("fabric: cross-shard action %T on lane %d is not distributable", m.Act, m.Lane)
	}
}

// maxCellBytes bounds a decoded cell's size: far above any cell the
// models send, far below sizes whose serialization time would overflow.
const maxCellBytes = 1 << 24

// DecodeMail rebinds one wire payload to this replica of the model,
// returning the action and argument to inject on the destination shard at
// the original (time, lane) key.
func (n *Net) DecodeMail(kind byte, lane int32, payload []byte) (sim.Action, uint64, error) {
	switch kind {
	case MailCell:
		if lane < 0 || int(lane) >= 2*len(n.wiring) {
			return nil, 0, fmt.Errorf("fabric: cell on bad link lane %d", lane)
		}
		if len(payload) < 1 {
			return nil, 0, fmt.Errorf("fabric: truncated cell payload")
		}
		flags, rest := payload[0], payload[1:]
		size, k1 := binary.Uvarint(rest)
		if k1 <= 0 || size > maxCellBytes {
			return nil, 0, fmt.Errorf("fabric: bad cell size")
		}
		dst, k2 := binary.Uvarint(rest[k1:])
		if k2 <= 0 || dst >= uint64(len(n.edges)) {
			return nil, 0, fmt.Errorf("fabric: bad cell destination")
		}
		seq, k3 := binary.Varint(rest[k1+k2:])
		if k3 <= 0 {
			return nil, 0, fmt.Errorf("fabric: truncated cell seq")
		}
		p := netsim.NewPacket()
		p.Size = int(size)
		p.Dst = int32(dst)
		p.Seq = seq
		p.Ack = flags&cellAck != 0
		p.CE = flags&cellCE != 0
		p.Echo = flags&cellEcho != 0
		p.Down = flags&cellDown != 0
		// A cell crossing a shard cut was scheduled by the link's LanePipe
		// with the queue and pipe hops already behind it: rebind it to the
		// tail of this replica's route so the next hop is the link itself.
		p.SetRoute(n.links[lane].route[2:])
		return p, 0, nil
	case MailReach:
		k, ok := n.ctl.(*closControl)
		if !ok {
			return nil, 0, fmt.Errorf("fabric: reach mail for a %s fabric, which has no reach protocol", n.Graph.Spec())
		}
		if first := int32(2 * len(n.wiring)); lane < first || lane >= first+int32(k.lanes()) {
			return nil, 0, fmt.Errorf("fabric: reach mail on bad lane %d", lane)
		}
		spine, k1 := binary.Uvarint(payload)
		if k1 <= 0 || spine >= uint64(len(k.spineN)) {
			return nil, 0, fmt.Errorf("fabric: bad reach spine")
		}
		tbl := k.tbl[k.spineN[spine]]
		port, k2 := binary.Uvarint(payload[k1:])
		if k2 <= 0 || port >= uint64(tbl.NumLinks()) {
			return nil, 0, fmt.Errorf("fabric: bad reach port")
		}
		cnt, k3 := binary.Uvarint(payload[k1+k2:])
		if k3 <= 0 {
			return nil, 0, fmt.Errorf("fabric: truncated reach count")
		}
		rest := payload[k1+k2+k3:]
		// Every message takes at least origin + chunk + flag + bitmap bytes.
		if cnt > uint64(len(rest)/(3+8*len(reach.Message{}.Bits))) {
			return nil, 0, fmt.Errorf("fabric: bad reach count")
		}
		msgs := make([]reach.Message, cnt)
		for i := range msgs {
			origin, a := binary.Uvarint(rest)
			if a <= 0 {
				return nil, 0, fmt.Errorf("fabric: truncated reach origin")
			}
			chunk, b := binary.Uvarint(rest[a:])
			if b <= 0 || chunk >= uint64(reach.MessagesPerTable(tbl.NumFA())) {
				return nil, 0, fmt.Errorf("fabric: bad reach chunk")
			}
			rest = rest[a+b:]
			if len(rest) < 1+8*len(msgs[i].Bits) {
				return nil, 0, fmt.Errorf("fabric: truncated reach bitmap")
			}
			msgs[i].Origin = uint16(origin)
			msgs[i].Chunk = uint16(chunk)
			msgs[i].Faulty = rest[0] != 0
			rest = rest[1:]
			for w := range msgs[i].Bits {
				msgs[i].Bits[w] = binary.LittleEndian.Uint64(rest)
				rest = rest[8:]
			}
		}
		return applyReach{tbl: tbl, spine: int(spine), port: int(port), msgs: msgs}, 0, nil
	default:
		return nil, 0, fmt.Errorf("fabric: unknown mail kind %d", kind)
	}
}

// OwnerOfLinkDir returns the shard owning directed link d (2i = A->B of
// topology link i, 2i+1 = B->A): the sending device's shard, where the
// direction's serialization queue — and therefore its counters — lives.
func (n *Net) OwnerOfLinkDir(d int) int {
	lk := n.wiring[d/2]
	if d%2 == 0 {
		return n.nodeShard[lk.A]
	}
	return n.nodeShard[lk.B]
}

// DirCounters snapshots directed link d's forwarding counters (the
// digest-relevant subset of ReadLinkCounters). Barrier context only.
func (n *Net) DirCounters(d int) (fwdBytes, fwdCells, drops uint64) {
	q := n.links[d].q
	return q.FwdBytes, q.Forwarded, q.Drops
}

// DirTelemetry snapshots directed link d's telemetry tuple: DirCounters
// plus instantaneous queue occupancy. This is what a distributed peer
// ships per owned dir at a scrape boundary. Barrier context only.
func (n *Net) DirTelemetry(d int) (fwdBytes, fwdCells, drops uint64, queueBytes int) {
	q := n.links[d].q
	return q.FwdBytes, q.Forwarded, q.Drops, q.Bytes()
}
