// The control planes: what fills the data plane's descend and climb
// bitmaps, selected by the graph's type.
//
// A *topo.Clos runs the paper's reachability protocol. Each Fabric
// Element keeps the hardware reachability table of §5.8 (reach.Table),
// and its descend bitmaps are that table's per-destination link sets, so
// ApplyMessage and LinkDown update forwarding in place. A failure is
// detected locally at once (keepalive, §5.9); the FE1's changed reachable
// set reaches the spines after Cfg.ReachDelay as reach messages — the
// propagation Appendix E sizes. The protocol needs the up/down tiers.
//
// Every other graph (Space Shuffle, star-replaced, ...) has no protocol
// in its paper, so it is centralized-but-delayed: a failure prunes the
// dead port at both ends at once, and Graph.Routes is reinstalled over
// the live links after Cfg.ReachDelay — the same convergence lag, without
// a graph-specific protocol. The reinstall runs in barrier context, so
// its instant is quantized to a window boundary — a function of the
// lookahead alone, hence identical at every shard count.
package fabric

import (
	"sort"

	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// control is the seam between the data plane and a control plane.
type control interface {
	// classes sizes device i's port classes: the descend spreader's port
	// count (ports 0..down-1) and the climb spreader's (ports upLo..upLo+up-1).
	classes(i int) (down, upLo, up int)
	// install builds the initial forwarding state once the devices and
	// links exist.
	install()
	// lanes is the number of event lanes the control plane's own flows
	// use, right after the directed links' lanes.
	lanes() int
	// linkChanged reacts to topology link i changing administrative state;
	// the data plane's link gates have already flipped.
	linkChanged(i int, up bool)
	// spines lists the devices whose reachability tables only their owning
	// shard holds (reported per spine in a distributed run).
	spines() []int
	// replicatedUnreachable counts the unreachable pairs visible from state
	// every replica holds alike (administrative state and barrier-installed
	// routes).
	replicatedUnreachable() int
}

// Spines returns the number of spine reachability tables (NumFE2 on a
// Clos, zero on graphs whose routes every replica installs alike).
func (n *Net) Spines() int { return len(n.ctl.spines()) }

// ShardOfSpine returns the shard owning spine i — the shard whose replica
// holds the authoritative copy of that spine's reachability table.
func (n *Net) ShardOfSpine(i int) int { return n.nodeShard[n.ctl.spines()[i]] }

// SpineUnreachable counts the destinations spine i currently has no live
// down path to — the per-spine part of UnreachablePairs, reported by the
// spine's owner in a distributed run. Barrier context only.
func (n *Net) SpineUnreachable(i int) int {
	bad := 0
	for _, set := range n.nodes[n.ctl.spines()[i]].descend {
		if set.Count() == 0 {
			bad++
		}
	}
	return bad
}

// ReplicatedUnreachable is the rest of UnreachablePairs: on a Clos the
// FAs with no live uplink at all, elsewhere the ordered (source, dest)
// edge pairs the source cannot begin to route. It reads only state every
// distributed replica holds alike, so any replica can report it.
func (n *Net) ReplicatedUnreachable() int { return n.ctl.replicatedUnreachable() }

// spinePort locates one FE1 uplink's far end: spine device and the
// spine's local down-port.
type spinePort struct {
	spine int // device index
	port  int
}

// reachEvent is one buffered OnReachUpdate notification (Clos):
// the update lands on the spine tier at `at`; the engine's barrier drains
// the buffers in deterministic (at, fe1) order.
type reachEvent struct {
	at        sim.Time
	fe1       int
	reachable int
}

// closControl is the reach protocol on a Clos. Devices are numbered FA,
// FE1, FE2 (topo.Clos.NodeIndex).
type closControl struct {
	n      *Net
	c      *topo.Clos
	tbl    []*reach.Table // per device; nil on FAs
	up     [][]spinePort  // per FE1: far end of each uplink
	spineN []int          // device index of each spine
	one    reach.Bitmap   // reused single-FA set (build or barrier context only)
}

func newClosControl(n *Net, c *topo.Clos) *closControl {
	k := &closControl{n: n, c: c, tbl: make([]*reach.Table, c.NumNodes()), up: make([][]spinePort, c.NumFE1), one: reach.NewBitmap(c.NumFA)}
	for f := 0; f < c.NumFE1; f++ {
		k.tbl[c.NumFA+f] = reach.NewTable(c.NumFA, c.FE1Down)
		k.up[f] = make([]spinePort, c.FE1Up)
	}
	for s := 0; s < c.NumFE2; s++ {
		k.spineN = append(k.spineN, c.NumFA+c.NumFE1+s)
		k.tbl[k.spineN[s]] = reach.NewTable(c.NumFA, c.FE2Down)
	}
	for _, lk := range c.Links {
		if lk.A.Kind == topo.KindFE1 {
			k.up[lk.A.Index][lk.APort-c.FE1Down] = spinePort{spine: c.NodeIndex(lk.B), port: lk.BPort}
		}
	}
	return k
}

func (k *closControl) classes(i int) (down, upLo, up int) {
	switch c := k.c; {
	case i < c.NumFA:
		return 0, 0, c.FAUplinks
	case i < c.NumFA+c.NumFE1:
		return c.FE1Down, c.FE1Down, c.FE1Up
	default:
		return c.FE2Down, 0, 0
	}
}

func (k *closControl) lanes() int    { return k.c.NumFE1 }
func (k *closControl) spines() []int { return k.spineN }

// install points every FE's descend bitmaps at its reach table and seeds
// the tables from the wiring: each FE1 down port advertises its attached
// FA; each FE2 down port carries the full reachable set of the FE1 behind
// it (§5.8).
func (k *closControl) install() {
	c := k.c
	for i, t := range k.tbl {
		if t == nil {
			continue
		}
		d := k.n.nodes[i]
		d.descend = make([]reach.Bitmap, c.NumFA)
		for fa := range d.descend {
			d.descend[fa] = t.Links(fa)
		}
	}
	for _, lk := range c.Links {
		if lk.A.Kind == topo.KindFA {
			k.setFALink(lk, true)
		} else {
			k.setUplink(lk, true)
		}
	}
	k.n.eng.OnBarrier(k.drainReach)
}

// setFALink applies an FA<->FE1 link's state at both ends: the FA's
// uplink liveness and the FE1's table entry for the FA.
func (k *closControl) setFALink(lk topo.Link, up bool) {
	fa, t := k.n.nodes[lk.A.Index], k.tbl[k.c.NodeIndex(lk.B)]
	if !up {
		fa.climb.Clear(lk.APort)
		t.LinkDown(lk.BPort)
		return
	}
	fa.climb.Set(lk.APort)
	k.one.Reset()
	k.one.Set(lk.A.Index)
	applySet(t, lk.BPort, k.one, k.c.NumFA)
}

// setUplink applies an FE1<->FE2 link's state at both ends: the FE1's
// uplink liveness and the spine's table entry carrying the FE1's set.
func (k *closControl) setUplink(lk topo.Link, up bool) {
	fe, sp := k.n.nodes[k.c.NodeIndex(lk.A)], k.tbl[k.c.NodeIndex(lk.B)]
	u := lk.APort - k.c.FE1Down
	if !up {
		fe.climb.Clear(u)
		sp.LinkDown(lk.BPort)
		return
	}
	fe.climb.Set(u)
	applySet(sp, lk.BPort, k.tbl[fe.id].ReachableSet(), k.c.NumFA)
}

func (k *closControl) linkChanged(i int, up bool) {
	lk := k.c.Links[i]
	if lk.A.Kind == topo.KindFA {
		k.setFALink(lk, up)
		k.readvertise(lk.B.Index)
	} else {
		k.setUplink(lk, up)
	}
}

// applySet installs set as the advertised reachability of one link via
// the wire-format message sequence (exercising the real protocol path).
func applySet(t *reach.Table, port int, set reach.Bitmap, numFA int) {
	applyReach{tbl: t, port: port, msgs: reach.BuildMessages(0, set, numFA)}.Act(0)
}

// applyReach applies one FE1's reach messages to a spine's table — the
// cross-shard payload of a sharded re-advertisement.
type applyReach struct {
	tbl   *reach.Table
	spine int // spine index, for the wire
	port  int
	msgs  []reach.Message
}

// Act implements sim.Action.
func (a applyReach) Act(uint64) {
	for _, m := range a.msgs {
		if err := a.tbl.ApplyMessage(a.port, m); err != nil {
			panic(err) // wiring bug, or a decoder that let a bad message through
		}
	}
}

// readvertise propagates FE1 f's (changed) reachable set to every spine
// it still has a live link to, after the protocol's propagation delay.
// The messages are built one lookahead before delivery on the FE1's
// shard, so they can cross a mailbox, and every spine applies them at
// the delay's instant on the FE1's reach lane.
func (k *closControl) readvertise(f int) {
	n, c := k.n, k.c
	if c.NumFE2 == 0 {
		return // single-tier fabric: FAs spray blindly, nothing upstream
	}
	fe := n.nodes[c.NumFA+f]
	look := n.eng.Lookahead()
	lane := int32(2*len(n.wiring) + f)
	src := n.eng.Shard(fe.sh.id)
	fe.sh.sm.AtLaneFunc(fe.sh.sm.Now()+n.Cfg.ReachDelay-look, lane, func() {
		// The spine-side link state only changes in barrier context, so
		// this read is identical at every shard count.
		at := fe.sh.sm.Now() + look
		set := k.tbl[fe.id].ReachableSet()
		msgs := reach.BuildMessages(uint16(f), set, c.NumFA)
		for _, sp := range k.up[f] {
			if n.nodes[sp.spine].out[sp.port].up {
				a := applyReach{tbl: k.tbl[sp.spine], spine: sp.spine - c.NumFA - c.NumFE1, port: sp.port, msgs: msgs}
				src.To(n.nodeShard[sp.spine]).AtLane(at, lane, a, 0)
			}
		}
		fe.sh.reach = append(fe.sh.reach, reachEvent{at: at, fe1: f, reachable: set.Count()})
	})
}

// drainReach runs at every window barrier: collect the spine-landing
// notifications whose instant has passed, sort them into the canonical
// (time, FE1) order, and hand them to OnReachUpdate. Buffering per shard
// and sorting at the quiescent barrier is what keeps the management
// plane's view consistent — and deterministic — across shards.
func (k *closControl) drainReach(now sim.Time) {
	var due []reachEvent
	for _, sh := range k.n.shards {
		keep := sh.reach[:0]
		for _, ev := range sh.reach {
			if ev.at <= now {
				due = append(due, ev)
			} else {
				keep = append(keep, ev)
			}
		}
		sh.reach = keep
	}
	if len(due) == 0 || k.n.OnReachUpdate == nil {
		return
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].at != due[j].at {
			return due[i].at < due[j].at
		}
		return due[i].fe1 < due[j].fe1
	})
	for _, ev := range due {
		k.n.OnReachUpdate(ev.fe1, ev.reachable)
	}
}

// replicatedUnreachable counts the FAs with no live uplink at all. FA
// liveness is administrative state mutated only by barrier controls,
// which every distributed replica runs identically.
func (k *closControl) replicatedUnreachable() int {
	bad := 0
	for _, d := range k.n.edges {
		if d.climb.Count() == 0 {
			bad++
		}
	}
	return bad
}

// graphControl reinstalls Graph.Routes over the live links after every
// administrative change.
type graphControl struct {
	n        *Net
	reachCnt []int // per device: dst edges currently routable, for update hooks
}

// classes puts every port in both classes: the graph's routes may name
// any port as a descend or a climb candidate.
func (k *graphControl) classes(i int) (down, upLo, up int) {
	p := k.n.Graph.Node(i).Ports
	return p, 0, p
}

func (k *graphControl) lanes() int    { return 0 }
func (k *graphControl) spines() []int { return nil }

func (k *graphControl) install() {
	numEdge := k.n.Graph.NumEdge()
	for _, d := range k.n.nodes {
		d.descend = make([]reach.Bitmap, numEdge)
		for e := range d.descend {
			d.descend[e] = reach.NewBitmap(len(d.out))
		}
	}
	k.reachCnt = make([]int, len(k.n.nodes))
	k.installRoutes(true)
}

// installRoutes recomputes Graph.Routes over the live links and installs
// the candidate sets on every device. Control plane only, never on the
// per-cell path. Past the initial install it fires OnReachUpdate in
// device order for every device whose routable destination count changed.
func (k *graphControl) installRoutes(initial bool) {
	descend, climb := k.n.Graph.Routes(k.n.linkUp)
	for i, d := range k.n.nodes {
		cnt := 0
		for e, set := range d.descend {
			set.Reset()
			for _, p := range descend[i][e] {
				set.Set(p)
			}
			if len(descend[i][e]) > 0 {
				cnt++
			}
		}
		d.climb.Reset()
		for _, p := range climb[i] {
			d.climb.Set(p)
		}
		if cnt != k.reachCnt[i] && !initial && k.n.OnReachUpdate != nil {
			k.n.OnReachUpdate(i, cnt)
		}
		k.reachCnt[i] = cnt
	}
}

// linkChanged prunes a dead port at both ends at once — the local
// reaction to a failed keepalive — and schedules the delayed reinstall.
// Each change schedules its own; the reinstall reads the live links at
// execution time, so overlapping changes coalesce into the latest truth.
func (k *graphControl) linkChanged(i int, up bool) {
	n := k.n
	if !up {
		lk := n.wiring[i]
		for _, end := range [2][2]int{{lk.A, lk.APort}, {lk.B, lk.BPort}} {
			d := n.nodes[end[0]]
			for _, set := range d.descend {
				set.Clear(end[1])
			}
			d.climb.Clear(end[1])
		}
	}
	n.eng.At(n.eng.Now()+n.Cfg.ReachDelay, func() { k.installRoutes(false) })
}

// replicatedUnreachable counts ordered (src, dst) edge pairs the installed
// tables cannot begin to route: the src device has neither a descend
// candidate for dst nor any climb port. After reconvergence this is
// exact: the routes have a candidate iff a live path exists.
func (k *graphControl) replicatedUnreachable() int {
	bad := 0
	for e, d := range k.n.edges {
		if d.climb.Count() > 0 {
			continue
		}
		for t, set := range d.descend {
			if t != e && set.Count() == 0 {
				bad++
			}
		}
	}
	return bad
}
