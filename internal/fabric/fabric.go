// Package fabric is the topology-faithful cell fabric: every device of a
// topo.Graph is its own device, every serial link its own serialization
// queue + propagation pipe, and cells are sprayed per link at every hop
// with the §5.3 round-robin permutation arbiter (reach.Spreader). It
// replaces netsim's fluid TrunkFabric (one trunk per adapter and a
// FabricHops-deep crossing) for experiments that need per-link load
// balance, tier-by-tier buffering or link failures: both implement
// netsim.CellFabric, so the Stardust transport runs unchanged over either.
//
// There is one data plane for every graph. A device holds, per
// destination edge device, a descend bitmap of the ports that make
// progress toward it, plus one climb bitmap of detour ports. It sprays
// each cell over its descend candidates; with none it climbs, but only
// while the cell has never descended — the no-valley rule of §3.1.
// A per-flow ECMP mode replaces the spray with a deterministic hash pick
// over the same bitmaps, so spray-vs-ECMP comparisons run on identical
// topologies, routes and traffic.
//
// Only how the bitmaps are filled depends on the topology, and the
// graph's type selects it (control.go). A *topo.Clos runs the paper's
// reachability protocol (§5.8, §5.9, Appendix E): failures are detected
// locally at once and the lost reachability reaches the spines after
// Cfg.ReachDelay as reach messages. Every other graph reinstalls
// Graph.Routes over the live links after the same delay.
//
// The per-cell hot path allocates nothing: cells are pooled
// netsim.Packets, every directed link's route is prebuilt once, spreader
// reshuffles are in place, and forwarding state lives in dense bitmaps.
//
// A fabric runs on a parsim.Engine, which partitions the devices across
// its shards: every device's events run on its owning shard, cells cross
// shard cuts through conservative-lookahead mailboxes, and every link
// delivery is ordered by a per-link event lane, so the results are
// byte-identical for any shard count, one included. Administrative link
// state (FailLink/RestoreLink) mutates devices on several shards and so
// runs in barrier context only, quantized to window boundaries — a
// function of the lookahead alone.
package fabric

import (
	"fmt"
	"math/rand"

	"stardust/internal/netsim"
	"stardust/internal/parsim"
	"stardust/internal/reach"
	"stardust/internal/sim"
	"stardust/internal/topo"
)

// Config sizes the fabric's links and control plane.
type Config struct {
	LinkRate  netsim.Bps // per serial link (the paper runs the fabric ~5% over the edge)
	LinkDelay sim.Time   // per-hop propagation
	LinkBytes int        // per-link queue capacity
	// ReshuffleRounds is how many full traversals a spreader keeps one
	// permutation before reshuffling (§5.3's anti-synchronization).
	ReshuffleRounds int
	// ReachDelay is the latency for a reachability withdrawal to reach the
	// spine tier after a local failure (Appendix E's propagation step), and
	// the reconvergence lag of the recomputed graph routes.
	ReachDelay sim.Time
	Seed       int64
}

// DefaultConfig returns a fabric configuration for the given link speed
// and hop delay.
func DefaultConfig(rate netsim.Bps, delay sim.Time, seed int64) Config {
	return Config{
		LinkRate:        rate,
		LinkDelay:       delay,
		LinkBytes:       256 << 10,
		ReshuffleRounds: 64,
		ReachDelay:      50 * sim.Microsecond,
		Seed:            seed,
	}
}

// ClosFor returns a two-tier Clos sized to front a k-ary fat-tree's
// edge. The sizing lives in topo.ClosForK — the single source of the
// K -> dimensions derivation shared by cmd binaries, distsim specs and
// telemetry headers, so two peers can never hash different models from
// the same flags.
func ClosFor(k int) (*topo.Clos, error) { return topo.ClosForK(k) }

// RouteMode selects how a device picks among its candidate ports.
type RouteMode int

const (
	// ModeSpray sprays per cell with the §5.3 round-robin permutation
	// arbiter — Stardust's load balancing.
	ModeSpray RouteMode = iota
	// ModeECMP picks one candidate per flow by deterministic hash — the
	// classic per-flow ECMP baseline the paper argues against.
	ModeECMP
)

// shardState is the per-shard slice of a Net: the shard's event heap plus
// the counters its devices increment, one per parsim shard, so the hot
// path never writes a counter another shard's goroutine could be writing
// concurrently. Aggregate accessors (Injected, Delivered, ...) sum across
// shards and are only meaningful in barrier context.
type shardState struct {
	id int
	sm *sim.Simulator

	injected     uint64
	delivered    uint64
	deadDrops    uint64
	noRouteDrops uint64

	reach []reachEvent // Clos: buffered spine-landing notifications
}

// link is one direction of a physical serial link: a serialization queue,
// the propagation crossing, and an arrival gate (the link itself) that
// loses cells when the link is down — cells already serialized into a
// failed link are lost on the wire, like the real thing. The queue lives
// on the sending device's shard; Receive runs on the receiving device's.
type link struct {
	net   *Net
	sh    *shardState // receiving device's shard
	q     *netsim.Queue
	to    *node
	route []netsim.Handler
	up    bool
}

// Receive implements netsim.Handler: the cell reaches the far end.
func (l *link) Receive(c *netsim.Packet) {
	if !l.up {
		l.sh.deadDrops++
		l.net.dropCell(c)
		return
	}
	l.to.Receive(c)
}

func (l *link) send(c *netsim.Packet) {
	c.SetRoute(l.route)
	c.SendOn()
}

// egress terminates cells at their destination edge device.
type egress struct {
	net *Net
	sh  *shardState
	to  netsim.Handler // optional per-edge endpoint (SetEgress)
}

// Receive implements netsim.Handler.
func (e *egress) Receive(c *netsim.Packet) {
	e.sh.delivered++
	if e.to != nil {
		e.to.Receive(c)
		return
	}
	if fn := e.net.OnDeliver; fn != nil {
		fn(c)
		return
	}
	c.Release()
}

// node is one device of the graph. The control plane owns the contents
// of descend and climb; the data plane only reads them.
type node struct {
	net  *Net
	sh   *shardState
	id   int
	edge int32 // edge index, -1 for pure transit devices

	out []*link // per port

	descend []reach.Bitmap  // per dst edge: candidate ports (nil: never descends)
	climb   reach.Bitmap    // detour ports, bit i = port climbLo+i
	climbLo int             // first climb port
	sprD    *reach.Spreader // over the descend ports; nil when there are none
	sprUp   *reach.Spreader // over the climb ports; nil when there are none
}

// Receive implements netsim.Handler: deliver or forward one cell.
func (d *node) Receive(c *netsim.Packet) {
	if d.edge == c.Dst {
		d.net.egress[d.edge].Receive(c)
		return
	}
	d.forward(c)
}

// forward applies the up/down rule. Down beats up (shortest path); a cell
// that already descended must not climb again (no valleys), so during
// reconvergence a mis-steered cell is discarded rather than looped — the
// paper's packet-discard window.
func (d *node) forward(c *netsim.Packet) {
	if d.sprD != nil {
		if p := d.pick(d.sprD, d.descend[c.Dst], c.Seq); p >= 0 {
			c.Down = true
			d.out[p].send(c)
			return
		}
	}
	if d.sprUp != nil && !c.Down {
		if p := d.pick(d.sprUp, d.climb, c.Seq); p >= 0 {
			d.out[d.climbLo+p].send(c)
			return
		}
	}
	d.sh.noRouteDrops++
	d.net.dropCell(c)
}

// pick chooses one set bit: the spreader's next in spray mode, the
// flow-hashed k-th set bit (the k-th port of the sorted list) in ECMP
// mode. -1 when the set is empty.
func (d *node) pick(spr *reach.Spreader, set reach.Bitmap, flow int64) int {
	if d.net.mode == ModeSpray {
		return spr.Next(set)
	}
	if cnt := set.Count(); cnt > 0 {
		return set.Nth(int(ecmpHash(d.id, flow) % uint64(cnt)))
	}
	return -1
}

// ecmpHash mixes (device, flow id) into a uniform 64-bit value — a
// splitmix64 finalizer, deterministic everywhere.
func ecmpHash(node int, seq int64) uint64 {
	x := uint64(node)<<32 ^ uint64(seq)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Net owns every device and directed link of one topo.Graph instance.
type Net struct {
	Cfg   Config
	Graph topo.Graph

	ctl  control
	mode RouteMode

	eng       *parsim.Engine
	shards    []*shardState // one per engine shard
	nodeShard []int         // device -> owning shard

	nodes  []*node
	edges  []*node // edge index -> device
	egress []egress
	wiring []topo.GraphLink
	// links holds both directions of every topology link: 2i is A->B,
	// 2i+1 is B->A.
	links   []*link
	linkUp  []bool             // per topology link, in Graph.Routes' input shape
	hairpin [][]netsim.Handler // per edge: local switching path (src == dst)

	// Rebalancing state (see rebalance.go).
	laneGroups   []int32 // lane -> owning event group (edge index + 1; 0 = immovable)
	migrateHooks []func(fa, from, to int)
	migrations   uint64

	// OnDeliver receives every cell that reaches its destination edge
	// device and owns it (must forward or Release it). When nil, delivered
	// cells are Released. It runs on the destination's shard, so it must
	// only touch per-edge state — prefer SetEgress.
	OnDeliver func(*netsim.Packet)

	// OnCellDrop, when non-nil, observes every cell the fabric drops
	// (failed link, no live route) just before it is released, so a
	// harness can account the fate of every injected cell. It does not see
	// link-queue tail drops; install netsim Queue.OnDrop hooks (via
	// VisitQueues) for those. It is called from the dropping device's
	// shard and must be safe for concurrent use.
	OnCellDrop func(*netsim.Packet)

	// OnLinkState, when non-nil, observes every administrative state
	// change of a topology link (FailLink/RestoreLink), at the sim time
	// the adjacent devices detect it (keepalive, §5.9). The management
	// plane's event bus hangs off this hook; a layer chains onto it by
	// saving the previous value and calling it from its own.
	OnLinkState func(link int, up bool)

	// OnReachUpdate, when non-nil, observes every reachability update.
	// On a Clos it is the delayed withdrawal/readvertisement of an FE1's
	// reachable set landing on the spine tier (§5.8): dev is the FE1 and
	// reachable the FA count it advertises. On other graphs it fires per
	// device, in device order, whose routable destination count changed
	// with a route reinstall. It is invoked in barrier context, in
	// deterministic order.
	OnReachUpdate func(dev, reachable int)
}

// New builds the fabric across the shards of eng. assign maps each
// device (Graph node) to a shard; nil assigns contiguous index blocks per
// tier — a deterministic function of (topology, shard count), so two runs
// at the same shard count always cut the same links. The engine's
// lookahead must not exceed the link delay (a cell crossing a cut link
// must arrive at least one window later) and the reach delay must be at
// least two lookaheads (build + deliver).
func New(eng *parsim.Engine, cfg Config, g topo.Graph, assign []int) (*Net, error) {
	if cfg.LinkRate <= 0 || cfg.LinkBytes <= 0 {
		return nil, fmt.Errorf("fabric: need positive link rate and capacity")
	}
	if eng.Lookahead() > cfg.LinkDelay {
		return nil, fmt.Errorf("fabric: engine lookahead %d exceeds link delay %d", eng.Lookahead(), cfg.LinkDelay)
	}
	if cfg.ReachDelay < 2*eng.Lookahead() {
		return nil, fmt.Errorf("fabric: reach delay %d below two lookaheads (%d)", cfg.ReachDelay, 2*eng.Lookahead())
	}
	if assign == nil {
		assign = assignShards(g, eng.Shards())
	}
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("fabric: sharding shape %d does not match %d nodes", len(assign), g.NumNodes())
	}
	for _, s := range assign {
		if s < 0 || s >= eng.Shards() {
			return nil, fmt.Errorf("fabric: shard %d out of range [0,%d)", s, eng.Shards())
		}
	}
	shards := make([]*shardState, eng.Shards())
	for i := range shards {
		shards[i] = &shardState{id: i, sm: eng.Shard(i).Sim()}
	}
	assign = append([]int(nil), assign...)
	if cfg.ReshuffleRounds < 1 {
		cfg.ReshuffleRounds = 64
	}
	n := &Net{
		Cfg:       cfg,
		Graph:     g,
		eng:       eng,
		shards:    shards,
		nodeShard: assign,
		wiring:    g.GraphLinks(),
	}
	// The reach protocol needs only the Clos wiring checks; the route
	// recompute also needs routes from everywhere to everywhere.
	if cl, ok := g.(*topo.Clos); ok {
		if err := cl.Validate(); err != nil {
			return nil, err
		}
		n.ctl = newClosControl(n, cl)
	} else {
		if err := topo.ValidateGraph(g); err != nil {
			return nil, err
		}
		n.ctl = &graphControl{n: n}
	}
	n.linkUp = make([]bool, len(n.wiring))
	for i := range n.linkUp {
		n.linkUp[i] = true
	}

	// Spreader seeds are drawn in device order, one per non-empty port
	// class, descend before climb.
	seeds := rand.New(rand.NewSource(cfg.Seed))
	edgeOf := topo.EdgeOfNode(g)
	names := make([]string, g.NumNodes())
	n.nodes = make([]*node, g.NumNodes())
	for i := range n.nodes {
		info := g.Node(i)
		names[i] = info.Name
		d := &node{
			net:  n,
			sh:   shards[assign[i]],
			id:   i,
			edge: int32(edgeOf[i]),
			out:  make([]*link, info.Ports),
		}
		down, upLo, up := n.ctl.classes(i)
		if down > 0 {
			d.sprD = reach.NewSpreader(down, cfg.ReshuffleRounds, seeds.Int63())
		}
		if up > 0 {
			d.climbLo = upLo
			d.climb = reach.NewBitmap(up)
			d.sprUp = reach.NewSpreader(up, cfg.ReshuffleRounds, seeds.Int63())
		}
		n.nodes[i] = d
	}
	numEdge := g.NumEdge()
	n.edges = make([]*node, numEdge)
	n.egress = make([]egress, numEdge)
	n.hairpin = make([][]netsim.Handler, numEdge)
	for e := range n.egress {
		n.edges[e] = n.nodes[g.EdgeNode(e)]
		sh := n.edges[e].sh
		n.egress[e] = egress{net: n, sh: sh}
		lp := &netsim.LanePipe{Sched: sh.sm, Delay: cfg.LinkDelay, Lane: n.hairpinLane(e)}
		n.hairpin[e] = []netsim.Handler{lp, &n.egress[e]}
	}

	// One link per direction: a LanePipe on the directed link's own lane,
	// crossing shards through the engine's mailboxes when needed.
	mkLink := func(from, port, to int) *link {
		fromSh, toSh := shards[assign[from]], shards[assign[to]]
		l := &link{
			net: n,
			sh:  toSh,
			q:   netsim.NewQueue(fromSh.sm, fmt.Sprintf("%s:%d", names[from], port), cfg.LinkRate, cfg.LinkBytes, 0),
			to:  n.nodes[to],
			up:  true,
		}
		lp := &netsim.LanePipe{Sched: eng.Shard(fromSh.id).To(toSh.id), Delay: cfg.LinkDelay, Lane: int32(len(n.links))}
		l.route = []netsim.Handler{l.q, lp, l}
		n.links = append(n.links, l)
		return l
	}
	for _, lk := range n.wiring {
		n.nodes[lk.A].out[lk.APort] = mkLink(lk.A, lk.APort, lk.B)
		n.nodes[lk.B].out[lk.BPort] = mkLink(lk.B, lk.BPort, lk.A)
	}

	// Lane -> event-group table for adaptive rebalancing: deliveries onto
	// an edge device — over a link or its hairpin path — belong to that
	// device's migratable group; everything landing on a transit device
	// (and every control-plane flow) stays in immovable group 0.
	tbl := make([]int32, n.Lanes())
	for i, lk := range n.wiring {
		if e := edgeOf[lk.B]; e >= 0 {
			tbl[2*i] = n.GroupOfFA(e)
		}
		if e := edgeOf[lk.A]; e >= 0 {
			tbl[2*i+1] = n.GroupOfFA(e)
		}
	}
	for e := 0; e < numEdge; e++ {
		tbl[n.hairpinLane(e)] = n.GroupOfFA(e)
	}
	n.laneGroups = tbl
	for _, sh := range shards {
		sh.sm.SetLaneGroups(tbl)
		sh.sm.EnsureGroups(numEdge + 1)
	}
	n.ctl.install()
	return n, nil
}

// assignShards distributes the devices over n shards in contiguous index
// blocks, each tier independently.
func assignShards(g topo.Graph, n int) []int {
	tier := make([]int, g.NumNodes())
	size, seen := make(map[int]int), make(map[int]int)
	for i := range tier {
		tier[i] = g.Node(i).Tier
		size[tier[i]]++
	}
	out := make([]int, len(tier))
	for i, t := range tier {
		out[i] = seen[t] * n / size[t]
		seen[t]++
	}
	return out
}

// dropCell releases a cell lost inside the fabric, after showing it to
// the accounting hook.
func (n *Net) dropCell(c *netsim.Packet) {
	if n.OnCellDrop != nil {
		n.OnCellDrop(c)
	}
	c.Release()
}

// hairpinLane is the event lane of edge e's local switching path: after
// the directed links' lanes and the control plane's.
func (n *Net) hairpinLane(e int) int32 {
	return int32(2*len(n.wiring) + n.ctl.lanes() + e)
}

// Lanes returns the first event lane not used by the fabric: the lane
// space [0, Lanes()) names the fabric's directed links, control-plane
// flows and hairpin paths. A transport layered on top of the fabric (the
// sharded Stardust substrate) allocates its own lanes from Lanes()
// up, so the two layers' same-instant events never collide on one lane.
func (n *Net) Lanes() int32 { return n.hairpinLane(len(n.edges)) }

// Engine returns the parsim engine the fabric runs on.
func (n *Net) Engine() *parsim.Engine { return n.eng }

// NumFA returns the number of edge devices — the injection and delivery
// points (FAs on a Clos, switches or servers elsewhere).
func (n *Net) NumFA() int { return len(n.edges) }

// NumLinks returns the number of full-duplex topology links.
func (n *Net) NumLinks() int { return len(n.wiring) }

// SetMode selects spray or per-flow ECMP forwarding. Call before the run
// starts.
func (n *Net) SetMode(m RouteMode) { n.mode = m }

// ShardOfFA returns the shard owning edge device fa — the shard whose
// Simulator injection events and egress endpoints for fa must run on.
func (n *Net) ShardOfFA(fa int) int { return n.edges[fa].sh.id }

// edgeSim returns the event heap edge device fa's events run on,
// re-resolved per call because rebalancing migrations may move it.
func (n *Net) edgeSim(fa int) *sim.Simulator { return n.edges[fa].sh.sm }

// SetEgress installs h as the delivery endpoint of destination edge fa,
// taking precedence over OnDeliver. The handler owns delivered cells
// (forward or Release). h runs pinned to fa's shard, so a per-edge
// endpoint needs no locking.
func (n *Net) SetEgress(fa int, h netsim.Handler) { n.egress[fa].to = h }

// Inject sends one cell from edge srcFA toward edge dstFA. The cell's Flow
// field is opaque to the fabric and travels with it; delivered cells are
// handed to the egress endpoint (SetEgress/OnDeliver), lost cells are
// Released. It must be called from srcFA's shard (an event scheduled on
// that shard's Simulator). In ECMP mode the cell is
// stamped with its flow id (in Seq) so every hop hashes the flow to the
// same path; ECMP fabrics therefore cannot carry a transport that uses Seq.
func (n *Net) Inject(c *netsim.Packet, srcFA, dstFA int) {
	d := n.edges[srcFA]
	d.sh.injected++
	c.Dst = int32(dstFA)
	c.Down = false
	if srcFA == dstFA {
		// Local switching inside the device: no fabric crossing.
		c.SetRoute(n.hairpin[srcFA])
		c.SendOn()
		return
	}
	if n.mode == ModeECMP {
		c.Seq = int64(srcFA)*int64(len(n.edges)) + int64(dstFA) + 1
	}
	d.forward(c)
}

// ShardTraffic is one shard's slice of the fabric's traffic accounting —
// written only by that shard's event loop, so in a distributed run only
// the shard's owner holds real values and reports them.
type ShardTraffic struct {
	Injected     uint64
	Delivered    uint64
	DeadDrops    uint64 // lost on a failed link
	NoRouteDrops uint64 // discarded with no live next hop (convergence)
}

// TrafficOfShard snapshots shard s's counters. Barrier context only.
func (n *Net) TrafficOfShard(s int) ShardTraffic {
	sh := n.shards[s]
	return ShardTraffic{sh.injected, sh.delivered, sh.deadDrops, sh.noRouteDrops}
}

// traffic sums the traffic counters of every shard. Call it only in
// barrier context.
func (n *Net) traffic() ShardTraffic {
	var t ShardTraffic
	for s := range n.shards {
		st := n.TrafficOfShard(s)
		t.Injected += st.Injected
		t.Delivered += st.Delivered
		t.DeadDrops += st.DeadDrops
		t.NoRouteDrops += st.NoRouteDrops
	}
	return t
}

// Injected counts cells handed to Inject (barrier context, as traffic).
func (n *Net) Injected() uint64 { return n.traffic().Injected }

// Delivered counts cells that reached their destination (barrier context).
func (n *Net) Delivered() uint64 { return n.traffic().Delivered }

// Drops counts every cell lost inside the fabric: failed-link losses,
// no-route discards during convergence, and link-queue tail drops.
// Barrier context only.
func (n *Net) Drops() uint64 {
	t := n.traffic()
	return t.DeadDrops + t.NoRouteDrops + n.QueueDrops()
}

// QueueDrops sums tail drops across all link queues.
func (n *Net) QueueDrops() uint64 {
	var d uint64
	for _, l := range n.links {
		d += l.q.Drops
	}
	return d
}

// FailLink takes down both directions of topology link i (an index into
// Graph.GraphLinks). The adjacent devices detect the loss immediately
// (keepalive, §5.9); the control plane reconverges after Cfg.ReachDelay.
// It mutates state on several shards and must therefore run in barrier
// context (parsim Engine.At / OnBarrier, or between Run calls).
func (n *Net) FailLink(i int) { n.setLink(i, false) }

// RestoreLink brings topology link i back up; the control plane
// re-advertises the recovered reachability after the same delay. The
// barrier-context requirement of FailLink applies.
func (n *Net) RestoreLink(i int) { n.setLink(i, true) }

func (n *Net) setLink(i int, up bool) {
	n.checkBarrier()
	if n.linkUp[i] == up {
		return
	}
	n.linkUp[i] = up
	n.links[2*i].up = up
	n.links[2*i+1].up = up
	n.ctl.linkChanged(i, up)
	if n.OnLinkState != nil {
		n.OnLinkState(i, up)
	}
}

// checkBarrier panics when multi-shard state is mutated outside barrier
// context — the misuse that would otherwise be a silent data race.
func (n *Net) checkBarrier() {
	if !n.eng.InBarrier() {
		panic("fabric: link state must be changed in barrier context (parsim Engine.At/OnBarrier)")
	}
}

// LinkUp reports the administrative state of topology link i.
func (n *Net) LinkUp(i int) bool { return n.linkUp[i] }

// UnreachablePairs cross-checks the reachability state after failures:
// the spine-held part (SpineUnreachable over every spine) plus the
// replicated part (ReplicatedUnreachable). Zero means every destination
// is still deliverable from everywhere — the §5.9 self-healing invariant.
// Barrier context only.
func (n *Net) UnreachablePairs() int {
	bad := n.ctl.replicatedUnreachable()
	for i := 0; i < n.Spines(); i++ {
		bad += n.SpineUnreachable(i)
	}
	return bad
}

// FAUplinkBytes returns the forwarded bytes of every edge device's
// outbound links, edge-major in ascending directed-link order — the
// per-link load-balance evidence of the linkload experiments.
func (n *Net) FAUplinkBytes() []uint64 {
	var out []uint64
	for _, dirs := range topo.EdgeUplinkDirs(n.Graph) {
		for _, d := range dirs {
			out = append(out, n.links[d].q.FwdBytes)
		}
	}
	return out
}

// LinkCounters is a point-in-time snapshot of one directed link's
// counters — the raw material of the management plane's telemetry scrape.
type LinkCounters struct {
	Link       int  // topology link index (into Graph.GraphLinks)
	Dir        int  // 0 = A->B, 1 = B->A
	Up         bool // administrative state
	FwdBytes   uint64
	FwdCells   uint64
	Drops      uint64 // serialization-queue tail drops
	QueueBytes int    // instantaneous occupancy
	PeakBytes  int
}

// ReadLinkCounters snapshots both directions of topology link i into out
// (a 2-element window), so a periodic scraper can read the whole fabric
// without allocating. out[0] is the A->B direction. Barrier context only
// (the scrape crosses every shard's queues).
func (n *Net) ReadLinkCounters(i int, out *[2]LinkCounters) {
	for d := 0; d < 2; d++ {
		q := n.links[2*i+d].q
		out[d] = LinkCounters{
			Link:       i,
			Dir:        d,
			Up:         n.linkUp[i],
			FwdBytes:   q.FwdBytes,
			FwdCells:   q.Forwarded,
			Drops:      q.Drops,
			QueueBytes: q.Bytes(),
			PeakBytes:  q.PeakBytes,
		}
	}
}

// VisitQueues visits every directed link's serialization queue (for
// aggregate statistics). Barrier context only.
func (n *Net) VisitQueues(fn func(q *netsim.Queue)) {
	for _, l := range n.links {
		fn(l.q)
	}
}

// ShardEvents returns the cumulative executed-event count of every shard's
// event loop — the imbalance evidence the parscale scenario reports.
// Barrier context only.
func (n *Net) ShardEvents() []uint64 {
	out := make([]uint64, len(n.shards))
	for i, sh := range n.shards {
		out[i] = sh.sm.Processed
	}
	return out
}
