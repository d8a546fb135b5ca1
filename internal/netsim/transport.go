// The Stardust transport: the Fabric Adapter's edge of §3–§4 — per-flow
// ingress VOQs, the destination port's credit scheduler and in-order
// reassembly — over any CellFabric, partitioned across the event loops of
// a parsim.Engine. The fabric only moves cells: the per-link
// *fabric.Net simulates every device and serial link, the fluid
// TrunkFabric (Appendix G) reduces each adapter's uplinks to one trunk.
//
// Ownership follows the edge: every host — its NIC queue, egress port
// queue, credit scheduler and TCP endpoints — is pinned to the parsim
// shard that owns its edge Fabric Adapter in the underlying cell fabric
// (SetEgress pins the delivery endpoint to the same shard). A VOQ for
// the flow src→dst is split in two: the source half (ingress queue,
// credit balance, cell fragmentation) lives on src's shard, the
// destination half (in-order reassembly stream, §4.1 timer) on dst's.
//
// Three control flows cross shards, each on its own event lane keyed by
// the ordered host pair so the execution order of same-instant events is
// a function of the traffic alone, never of the partitioning:
//
//   - requests   (src→dst): the VOQ advertises its backlog to the
//     destination port's credit scheduler after CtrlDelay;
//   - grants     (dst→src): the scheduler's credit reaches the VOQ after
//     CtrlDelay and releases packets as cells;
//   - ship notes (src→dst): each released packet's reassembly state
//     enters the destination's in-order delivery stream one link delay
//     after shipping — always before any of its cells can finish
//     crossing the fabric (minimum two hops), so the flight ring is
//     built in ship order on the owning shard.
//
// Cells themselves cross on the fabric's own lanes. The same seed
// therefore yields byte-identical transport state at any shard count —
// the fabric determinism contract extended to the transport; the
// invariant suite and the CI matrix verify it rather than assume it.
//
// The hot path allocates nothing in steady state: packets, cells and
// reassembly states are pooled, every cross-shard message reuses a
// pre-bound sim.Action and a prebuilt lane scheduler, and the per-shard
// counters are plain fields summed only in barrier context.
package netsim

import (
	"fmt"
	"sync"

	"stardust/internal/parsim"
	"stardust/internal/sched"
	"stardust/internal/sim"
)

// CellFabric is the fabric surface the transport builds on: cell
// injection plus the shard-pinning contract of a fabric built on a parsim
// engine. *fabric.Net and *TrunkFabric implement it.
type CellFabric interface {
	// Inject carries one cell from the source edge device to the
	// destination edge device; delivered cells reach the SetEgress
	// endpoint, lost ones are Released.
	Inject(c *Packet, srcFA, dstFA int)
	// Drops counts the cells lost inside the fabric.
	Drops() uint64
	// Engine returns the parsim engine the fabric is partitioned over.
	Engine() *parsim.Engine
	// NumFA returns the number of edge Fabric Adapters the fabric fronts.
	NumFA() int
	// ShardOfFA returns the shard owning Fabric Adapter fa; Inject must be
	// called from that shard and SetEgress handlers run pinned to it.
	ShardOfFA(fa int) int
	// SetEgress installs the delivery endpoint of destination FA fa.
	SetEgress(fa int, h Handler)
	// Lanes returns the first event lane not used by the fabric; the
	// transport allocates its lanes from there up.
	Lanes() int32
	// GroupOfFA returns the kernel event-group id of FA fa's migratable
	// device group (0 is the immovable remainder).
	GroupOfFA(fa int) int32
	// LaneGroups returns the fabric's lane -> group table; the transport
	// extends it over its own lanes and re-installs it on every shard.
	LaneGroups() []int32
	// OnMigrateFA registers a hook run (in barrier context) after the
	// fabric migrates FA fa between shards; the transport re-pins the
	// hosts behind the adapter from it.
	OnMigrateFA(fn func(fa, from, to int))
}

// voqKey names a VOQ by its ordered host pair.
type voqKey struct {
	src, dst int // host indices
}

// sdShard is the per-shard slice of a StardustNet: the shard's
// event heap plus the counters its hosts increment, so the hot path never
// writes a counter another shard's goroutine could be writing.
type sdShard struct {
	id int
	sm *sim.Simulator

	cellsSent      uint64
	cellsDelivered uint64
	creditsSent    uint64
	creditBytes    uint64
	voqDrops       uint64
	reasmTimeouts  uint64
	shippedBytes   uint64 // cell bytes handed to the fabric (headers included)
	deliveredBytes uint64 // packet bytes released in order at the destination
}

// TransportCounters is a point-in-time aggregate snapshot of the
// transport — the raw material of the management plane's barrier scrape.
type TransportCounters struct {
	CellsSent      uint64 `json:"cells_sent"`
	CellsDelivered uint64 `json:"cells_delivered"`
	CreditsSent    uint64 `json:"credits_sent"`
	CreditBytes    uint64 `json:"credit_bytes"`
	VOQDrops       uint64 `json:"voq_drops"`
	ReasmTimeouts  uint64 `json:"reasm_timeouts"`
	ShippedBytes   uint64 `json:"shipped_bytes"`
	DeliveredBytes uint64 `json:"delivered_bytes"`
	NICDrops       uint64 `json:"nic_drops"`
	PortDrops      uint64 `json:"port_drops"`
	FabricDrops    uint64 `json:"fabric_drops"`
}

// StardustNet is the Stardust transport substrate partitioned across the
// shards of a parsim.Engine. Route returns a five-hop packet route, so TCP
// endpoints plug in unchanged; every host's state is pinned to its edge
// FA's shard and all cross-edge interactions travel on per-pair event
// lanes.
//
// Topology mutation (Route, and therefore flow creation) is only legal in
// barrier context: before the engine first runs, from Engine.At controls,
// or from OnBarrier hooks. Aggregate accessors carry the same caveat.
type StardustNet struct {
	Cfg StardustConfig

	eng      *parsim.Engine
	fab      CellFabric
	hosts    int
	hostsPer int
	laneBase int32

	shards []*sdShard
	hostSh []int   // shard of each host
	hpipes []*Pipe // per host: intra-shard propagation hop (follows migrations)

	hostUp []*Queue // per host: NIC into the source FA
	port   []*Queue // per host: egress port
	scheds []*sched.PortScheduler
	loops  []sdCreditLoop
	egress []sdEgress // per FA

	voqs    map[voqKey]*svoq   // barrier-context mutation only
	streams []map[int]*sstream // per dst host: src -> stream (dst shard reads)

	// OnVOQDrop and OnReasmDiscard observe ingress tail-drops and §4.1
	// reassembly-timer discards just before the packet is released — the
	// hooks that let the invariant harness account every packet's fate.
	// They run on the dropping host's shard and must only touch state that
	// is safe there (or be effectively serialized, as a sync'd recorder).
	OnVOQDrop      func(*Packet)
	OnReasmDiscard func(*Packet)
}

// NewStardustNet builds the substrate over fab (a fabric built with
// fabric.New or NewTrunkFabric) for hosts end hosts, hostsPer per edge
// Fabric Adapter. The fabric must span hosts/hostsPer FAs and its
// engine's lookahead must not exceed LinkDelay or CtrlDelay (every
// cross-shard flow needs at least one window of latency).
func NewStardustNet(fab CellFabric, cfg StardustConfig, hosts, hostsPer int) (*StardustNet, error) {
	if hosts < 2 || hostsPer < 1 || hosts%hostsPer != 0 {
		return nil, fmt.Errorf("netsim: bad stardust sizing %d/%d", hosts, hostsPer)
	}
	if cfg.CellBytes <= cfg.CellHeader {
		return nil, fmt.Errorf("netsim: cell too small")
	}
	eng := fab.Engine()
	if look := eng.Lookahead(); cfg.LinkDelay < look || cfg.CtrlDelay < look {
		return nil, fmt.Errorf("netsim: link delay %d / ctrl delay %d below engine lookahead %d",
			cfg.LinkDelay, cfg.CtrlDelay, look)
	}
	if got := fab.NumFA(); got != hosts/hostsPer {
		return nil, fmt.Errorf("netsim: %d hosts / %d per FA needs %d FAs, fabric has %d",
			hosts, hostsPer, hosts/hostsPer, got)
	}
	base := fab.Lanes()
	if int64(base)+3*int64(hosts)*int64(hosts) >= int64(sim.DefaultLane) {
		return nil, fmt.Errorf("netsim: %d hosts exhaust the transport lane space", hosts)
	}
	n := &StardustNet{
		Cfg:      cfg,
		eng:      eng,
		fab:      fab,
		hosts:    hosts,
		hostsPer: hostsPer,
		laneBase: base,
		voqs:     make(map[voqKey]*svoq),
	}
	n.shards = make([]*sdShard, eng.Shards())
	for i := range n.shards {
		n.shards[i] = &sdShard{id: i, sm: eng.Shard(i).Sim()}
	}
	n.hostSh = make([]int, hosts)
	n.hpipes = make([]*Pipe, hosts)
	n.hostUp = make([]*Queue, hosts)
	n.port = make([]*Queue, hosts)
	n.scheds = make([]*sched.PortScheduler, hosts)
	n.loops = make([]sdCreditLoop, hosts)
	n.streams = make([]map[int]*sstream, hosts)
	for h := 0; h < hosts; h++ {
		shID := fab.ShardOfFA(h / hostsPer)
		if shID < 0 || shID >= eng.Shards() {
			return nil, fmt.Errorf("netsim: fabric pinned FA %d to shard %d of %d", h/hostsPer, shID, eng.Shards())
		}
		sh := n.shards[shID]
		n.hostSh[h] = shID
		n.hpipes[h] = NewPipe(sh.sm, cfg.LinkDelay)
		n.hostUp[h] = NewQueue(sh.sm, fmt.Sprintf("ssd-nic%d", h), cfg.HostRate, cfg.NICBytes, 0)
		n.port[h] = NewQueue(sh.sm, fmt.Sprintf("ssd-port%d", h), cfg.HostRate, cfg.PortBytes, 0)
		n.scheds[h] = sched.New(sched.Config{
			PortRateBps:     float64(cfg.HostRate),
			CreditBytes:     cfg.CreditBytes,
			SpeedupFraction: cfg.SpeedUp - 1,
		})
		n.streams[h] = make(map[int]*sstream)
		l := &n.loops[h]
		l.net, l.h, l.sh = n, h, sh
		l.tmr = sim.NewTimer(sh.sm)
		l.fn = l.tick
		// Tag the credit loop's root event with the host's migration group
		// so the pacing chain (which re-arms causally) follows its FA when
		// rebalancing moves it.
		prev := sh.sm.Group()
		sh.sm.SetGroup(fab.GroupOfFA(h / hostsPer))
		l.tmr.Arm(n.scheds[h].CreditInterval(), l.fn)
		sh.sm.SetGroup(prev)
	}
	numFA := hosts / hostsPer
	n.egress = make([]sdEgress, numFA)
	for fa := 0; fa < numFA; fa++ {
		n.egress[fa] = sdEgress{net: n, sh: n.shards[fab.ShardOfFA(fa)]}
		fab.SetEgress(fa, &n.egress[fa])
	}
	// Extend the fabric's lane -> group table over the transport's pair
	// lanes: each control flow belongs to the group of the half it is
	// applied at (requests and ship notes run at the destination, grants at
	// the source), so ExtractGroup lifts a migrating FA's pending transport
	// events along with its fabric ones.
	tbl := make([]int32, int(base)+3*hosts*hosts)
	copy(tbl, fab.LaneGroups())
	for src := 0; src < hosts; src++ {
		for dst := 0; dst < hosts; dst++ {
			tbl[n.laneOf(src, dst, 0)] = fab.GroupOfFA(dst / hostsPer)
			tbl[n.laneOf(src, dst, 1)] = fab.GroupOfFA(src / hostsPer)
			tbl[n.laneOf(src, dst, 2)] = fab.GroupOfFA(dst / hostsPer)
		}
	}
	for _, sh := range n.shards {
		sh.sm.SetLaneGroups(tbl)
		sh.sm.EnsureGroups(numFA + 1)
	}
	fab.OnMigrateFA(n.migrate)
	return n, nil
}

// migrate re-pins the hosts behind FA fa after the fabric moved it to
// shard `to` — the transport half of an adaptive rebalancing step. The
// pending events already moved with the fabric's ExtractGroup (fabric and
// transport share the group id space), so this only re-points the homes
// future events are scheduled from: queues, propagation hops, timers and
// the pair lane schedulers of every flow touching a migrated host.
func (n *StardustNet) migrate(fa, _, to int) {
	sh := n.shards[to]
	lo, hi := fa*n.hostsPer, (fa+1)*n.hostsPer
	for h := lo; h < hi; h++ {
		n.hostSh[h] = to
		n.hpipes[h].Sim = sh.sm
		n.hostUp[h].Sim = sh.sm
		n.port[h].Sim = sh.sm
		n.loops[h].sh = sh
		n.loops[h].tmr.Rebind(sh.sm)
	}
	n.egress[fa].sh = sh
	// Every pair with a migrated half needs its cross-shard schedulers
	// rebuilt. Host-order iteration keeps this loop deterministic (map
	// range order is not), though the result would be order-independent.
	for src := 0; src < n.hosts; src++ {
		srcIn := src >= lo && src < hi
		for dst := 0; dst < n.hosts; dst++ {
			if !srcIn && (dst < lo || dst >= hi) {
				continue
			}
			v, ok := n.voqs[voqKey{src: src, dst: dst}]
			if !ok {
				continue
			}
			st := v.stream
			srcSh, dstSh := n.hostSh[src], n.hostSh[dst]
			v.sh = n.shards[srcSh]
			st.sh = n.shards[dstSh]
			st.reasmTmr.Rebind(n.shards[dstSh].sm)
			v.reqTo = n.eng.Shard(srcSh).To(dstSh)
			v.shipTo = n.eng.Shard(srcSh).To(dstSh)
			st.grantTo = n.eng.Shard(dstSh).To(srcSh)
		}
	}
}

// ScheduleHost schedules a.Act(arg) at absolute time at on host h's
// shard, tagged with h's migration group. Endpoint drivers that must
// survive adaptive rebalancing start their event chains here (and
// re-resolve HostSim per event) instead of caching a Simulator.
func (n *StardustNet) ScheduleHost(h int, at sim.Time, a sim.Action, arg uint64) {
	sm := n.shards[n.hostSh[h]].sm
	prev := sm.Group()
	sm.SetGroup(n.fab.GroupOfFA(h / n.hostsPer))
	sm.AtAction(at, a, arg)
	sm.SetGroup(prev)
}

// Engine returns the parsim engine the transport runs on.
func (n *StardustNet) Engine() *parsim.Engine { return n.eng }

// Hosts returns the number of end hosts.
func (n *StardustNet) Hosts() int { return n.hosts }

// ShardOfHost returns the shard owning host h's state.
func (n *StardustNet) ShardOfHost(h int) int { return n.hostSh[h] }

// HostSim returns the event heap host h is pinned to: schedule the host's
// endpoint work (TCP sources, sinks, injectors) here.
func (n *StardustNet) HostSim(h int) *sim.Simulator { return n.shards[n.hostSh[h]].sm }

// checkBarrier panics when multi-shard transport state is mutated outside
// barrier context — the misuse that would otherwise be a silent race.
func (n *StardustNet) checkBarrier() {
	if !n.eng.InBarrier() {
		panic("netsim: transport topology must be changed in barrier context (before Run, Engine.At or OnBarrier)")
	}
}

// laneOf returns the event lane of one directed control flow for the host
// pair src→dst: kind 0 = request, 1 = grant, 2 = ship notification. Lanes
// are a function of the pair alone, so they are identical at every shard
// count, and each lane has exactly one sending entity.
func (n *StardustNet) laneOf(src, dst, kind int) int32 {
	return n.laneBase + int32(3*(src*n.hosts+dst)+kind)
}

// Route returns the forward route for a flow src -> dst: NIC queue,
// propagation, VOQ capture, then (after in-order reassembly at the
// destination) the egress port queue and a final propagation hop. The
// caller appends the receiving endpoint, which must live on dst's shard
// (HostSim(dst)). Barrier context only — it may create the pair's VOQ.
func (n *StardustNet) Route(src, dst int) []Handler {
	v := n.voq(src, dst)
	return []Handler{n.hostUp[src], n.hpipes[src], v, n.port[dst], n.hpipes[dst]}
}

// voq returns (creating on first use) the split VOQ of the pair src→dst.
func (n *StardustNet) voq(src, dst int) *svoq {
	k := voqKey{src: src, dst: dst}
	if v, ok := n.voqs[k]; ok {
		return v
	}
	n.checkBarrier()
	srcSh, dstSh := n.shards[n.hostSh[src]], n.shards[n.hostSh[dst]]
	st := &sstream{net: n, key: k, sh: dstSh, reasmTmr: sim.NewTimer(dstSh.sm)}
	st.reasmFn = st.deliver
	st.grantTo = n.eng.Shard(dstSh.id).To(srcSh.id)
	st.grantLane = n.laneOf(src, dst, 1)
	v := &svoq{
		net:      n,
		key:      k,
		sh:       srcSh,
		stream:   st,
		reqTo:    n.eng.Shard(srcSh.id).To(dstSh.id),
		reqLane:  n.laneOf(src, dst, 0),
		shipTo:   n.eng.Shard(srcSh.id).To(dstSh.id),
		shipLane: n.laneOf(src, dst, 2),
	}
	st.grantAct = sdGrant{v: v}
	st.reqAct = sdRequest{st: st}
	n.voqs[k] = v
	n.streams[dst][src] = st
	return v
}

// ReadCounters snapshots the aggregate transport counters into out.
// Barrier context only (the sums cross every shard).
func (n *StardustNet) ReadCounters(out *TransportCounters) {
	*out = TransportCounters{FabricDrops: n.fab.Drops()}
	for _, sh := range n.shards {
		out.CellsSent += sh.cellsSent
		out.CellsDelivered += sh.cellsDelivered
		out.CreditsSent += sh.creditsSent
		out.CreditBytes += sh.creditBytes
		out.VOQDrops += sh.voqDrops
		out.ReasmTimeouts += sh.reasmTimeouts
		out.ShippedBytes += sh.shippedBytes
		out.DeliveredBytes += sh.deliveredBytes
	}
	for _, q := range n.hostUp {
		out.NICDrops += q.Drops
	}
	for _, q := range n.port {
		out.PortDrops += q.Drops
	}
}

// counters returns the aggregate snapshot; the convenience accessors
// below are cold-path wrappers so ReadCounters stays the single
// aggregation site.
func (n *StardustNet) counters() TransportCounters {
	var tc TransportCounters
	n.ReadCounters(&tc)
	return tc
}

// CellsSent counts cells handed to the fabric (barrier context only).
func (n *StardustNet) CellsSent() uint64 { return n.counters().CellsSent }

// CellsDelivered counts cells that reached their destination adapter
// (barrier context only).
func (n *StardustNet) CellsDelivered() uint64 { return n.counters().CellsDelivered }

// CreditsSent counts credit grants issued (barrier context only).
func (n *StardustNet) CreditsSent() uint64 { return n.counters().CreditsSent }

// VOQDrops counts ingress tail-drops (barrier context only).
func (n *StardustNet) VOQDrops() uint64 { return n.counters().VOQDrops }

// ReasmTimeouts counts §4.1 reassembly-timer discards (barrier context
// only).
func (n *StardustNet) ReasmTimeouts() uint64 { return n.counters().ReasmTimeouts }

// FabricDrops counts cells lost inside the fabric (§5.5: zero on a
// healthy fabric under credit pacing). Barrier context only.
func (n *StardustNet) FabricDrops() uint64 { return n.fab.Drops() }

// TotalDrops counts packet and cell losses across every Stardust queue,
// the VOQs and the fabric. Barrier context only.
func (n *StardustNet) TotalDrops() uint64 {
	tc := n.counters()
	return tc.FabricDrops + tc.VOQDrops + tc.NICDrops + tc.PortDrops
}

// VisitQueues visits every host-side queue (NIC then port, host order) —
// for drop hooks and aggregate statistics. Barrier context only.
func (n *StardustNet) VisitQueues(fn func(q *Queue)) {
	for _, q := range n.hostUp {
		fn(q)
	}
	for _, q := range n.port {
		fn(q)
	}
}

// InFlight counts packets the transport still holds: queued in VOQs or
// awaiting in-order delivery at a destination. Zero at drain means every
// injected packet's fate is settled. Barrier context only.
func (n *StardustNet) InFlight() int {
	total := 0
	for _, v := range n.voqs {
		total += v.q.len() + v.stream.flight.len()
	}
	return total
}

// CheckInvariants verifies the transport bookkeeping identities on every
// VOQ — most importantly credit conservation: every granted byte is
// accounted as shipped, still banked, or forfeited on an empty queue.
// Barrier context only.
func (n *StardustNet) CheckInvariants() error {
	for k, v := range n.voqs {
		if v.granted != v.shippedB+v.credit+v.forfeited {
			return fmt.Errorf("netsim: voq %d->%d credit leak: granted %d != shipped %d + banked %d + forfeited %d",
				k.src, k.dst, v.granted, v.shippedB, v.credit, v.forfeited)
		}
		if v.credit > 0 && v.q.len() > 0 {
			// release() always runs the balance down to zero or empties the
			// queue; positive credit alongside backlog at a barrier means a
			// grant was banked without being spent.
			return fmt.Errorf("netsim: voq %d->%d banked credit %d left unspent with backlog", k.src, k.dst, v.credit)
		}
		var queued int64
		for i := 0; i < v.q.len(); i++ {
			queued += int64(v.q.at(i).Size)
		}
		if queued != v.bytes {
			return fmt.Errorf("netsim: voq %d->%d byte accounting drift: ring %d vs counter %d", k.src, k.dst, queued, v.bytes)
		}
	}
	return nil
}

// sdEgress terminates fabric cells at one destination FA, pinned to the
// FA's shard by the fabric's SetEgress.
type sdEgress struct {
	net *StardustNet
	sh  *sdShard
}

// Receive implements Handler: one cell arrives at the destination
// adapter; tick its packet's outstanding byte count down and hand
// completed packets to the owning in-order stream.
func (e *sdEgress) Receive(c *Packet) {
	state, ok := c.Flow.(*sreasm)
	if !ok {
		c.Release()
		return
	}
	payload := c.Size - e.net.Cfg.CellHeader
	c.Release()
	e.sh.cellsDelivered++
	state.remaining -= payload
	if state.remaining > 0 {
		return
	}
	if state.discarded {
		// The reassembly timer gave up on this packet and its stragglers
		// have now all drained; the state can be reused.
		state.stream = nil
		sreasmPool.Put(state)
		return
	}
	state.done = true
	state.stream.deliver()
}

// sreasm tracks one packet's cells at the destination adapter. It doubles
// as the ship notification's sim.Action: shipping schedules the state
// itself onto the destination shard, so entering the in-order stream
// allocates nothing.
type sreasm struct {
	orig      *Packet
	remaining int
	stream    *sstream
	shippedAt sim.Time
	done      bool
	discarded bool
}

var sreasmPool = sync.Pool{New: func() any { return new(sreasm) }}

// Act implements sim.Action: the ship notification lands on the
// destination shard — enter the stream's flight ring in ship order.
func (st *sreasm) Act(uint64) { st.stream.enter(st) }

// sstream is the destination half of a split VOQ: the §4.1 in-order
// reassembly stream, owned by dst's shard. It also carries the pre-bound
// actions the pair needs on the destination side (request application,
// grant dispatch), so the hot path never allocates.
type sstream struct {
	net *StardustNet
	key voqKey
	sh  *sdShard

	flight   ring[*sreasm]
	reasmTmr *sim.Timer
	reasmFn  func()

	grantTo   sim.LaneScheduler
	grantLane int32
	grantAct  sdGrant
	reqAct    sdRequest
}

// enter adds a freshly shipped packet's state to the flight ring. Ship
// notifications arrive on the pair's ship lane in ship order, so the ring
// is ship-ordered on the owning shard. Cells of a hairpin (same-FA)
// packet can complete before the notification lands — deliver() handles
// a done head either way.
func (s *sstream) enter(st *sreasm) {
	s.flight.push(st)
	// deliver arms the reassembly timer for the blocked head (if any), so
	// entering needs no arm of its own.
	s.deliver()
}

// deliver releases completed packets in ship order; a head-of-line packet
// whose cells were lost in the fabric is discarded once it outlives the
// reassembly timer.
func (s *sstream) deliver() {
	n := s.net
	now := s.sh.sm.Now()
	for s.flight.len() > 0 {
		head := s.flight.peek()
		if head.done {
			s.flight.pop()
			orig := head.orig
			s.sh.deliveredBytes += uint64(orig.Size)
			head.orig = nil
			head.stream = nil
			sreasmPool.Put(head)
			orig.SendOn()
			continue
		}
		if n.Cfg.ReasmTimeout > 0 && now-head.shippedAt > n.Cfg.ReasmTimeout {
			s.flight.pop()
			head.discarded = true
			if h := n.OnReasmDiscard; h != nil {
				h(head.orig)
			}
			head.orig.Release()
			head.orig = nil
			s.sh.reasmTimeouts++
			continue
		}
		break
	}
	// Re-arm for the blocked head's deadline so the discard fires even if
	// nothing else ever completes on this stream.
	if n.Cfg.ReasmTimeout > 0 && s.flight.len() > 0 && !s.reasmTmr.Armed() {
		head := s.flight.peek()
		s.reasmTmr.Arm(head.shippedAt+n.Cfg.ReasmTimeout-now+sim.Nanosecond, s.reasmFn)
	}
}

// sdRequest applies a VOQ's backlog advertisement at the destination
// scheduler; it executes on dst's shard with the backlog in the arg.
type sdRequest struct{ st *sstream }

// Act implements sim.Action.
func (r sdRequest) Act(backlog uint64) {
	st := r.st
	st.net.scheds[st.key.dst].Request(sched.Requester{SrcFA: uint16(st.key.src), TC: 0}, int64(backlog))
}

// sdGrant delivers a credit grant to the source VOQ; it executes on src's
// shard with the granted bytes in the arg.
type sdGrant struct{ v *svoq }

// Act implements sim.Action.
func (g sdGrant) Act(bytes uint64) { g.v.grant(int64(bytes)) }

// sdCreditLoop is one destination port's credit generator, owned by the
// port's shard. Each tick applies the §4.1 egress watermarks, asks the
// scheduler for the next grant and dispatches it toward the winning
// source VOQ on the pair's grant lane.
type sdCreditLoop struct {
	net *StardustNet
	h   int
	sh  *sdShard
	tmr *sim.Timer
	fn  func()
}

func (l *sdCreditLoop) tick() {
	n := l.net
	sc := n.scheds[l.h]
	if occ := n.port[l.h].Bytes(); occ > n.Cfg.PauseBytes {
		sc.Pause()
	} else if occ < n.Cfg.ResumeBytes {
		sc.Resume()
	}
	if c, ok := sc.NextCredit(); ok {
		// The stream table only changes in barrier context, so this read
		// is stable for the whole run.
		if st := n.streams[l.h][int(c.To.SrcFA)]; st != nil {
			l.sh.creditsSent++
			l.sh.creditBytes += uint64(c.Bytes)
			st.grantTo.AtLane(l.sh.sm.Now()+n.Cfg.CtrlDelay, st.grantLane, st.grantAct, uint64(c.Bytes))
		}
	}
	l.tmr.Arm(sc.CreditInterval(), l.fn)
}

// svoq is the source half of a split VOQ: it captures packets at the
// source Fabric Adapter until credits release them as cells (§3.3). Owned
// by src's shard.
type svoq struct {
	net *StardustNet
	key voqKey
	sh  *sdShard

	q     pktRing
	bytes int64

	// Credit bookkeeping; the identity granted == shippedB + credit +
	// forfeited is the conservation invariant CheckInvariants enforces.
	credit    int64
	granted   int64
	shippedB  int64
	forfeited int64

	stream   *sstream
	reqTo    sim.LaneScheduler
	reqLane  int32
	shipTo   sim.LaneScheduler
	shipLane int32
}

// Receive implements Handler: a packet arrives from the host NIC.
func (v *svoq) Receive(p *Packet) {
	if v.bytes+int64(p.Size) > int64(v.net.Cfg.VOQBytes) {
		v.sh.voqDrops++
		if h := v.net.OnVOQDrop; h != nil {
			h(p)
		}
		p.Release()
		return // ingress tail-drop, as a ToR would (§3.1)
	}
	v.q.push(p)
	v.bytes += int64(p.Size)
	v.refreshRequest()
	// Consume any banked credit immediately.
	if v.credit > 0 {
		v.release()
	}
}

// refreshRequest advertises the current backlog to the destination port's
// scheduler after the control-plane delay, on the pair's request lane.
func (v *svoq) refreshRequest() {
	v.reqTo.AtLane(v.sh.sm.Now()+v.net.Cfg.CtrlDelay, v.reqLane, v.stream.reqAct, uint64(v.bytes))
}

func (v *svoq) grant(bytes int64) {
	v.granted += bytes
	v.credit += bytes
	v.release()
	v.refreshRequest()
}

// release dequeues whole packets against the credit balance and ships
// them as cells across the fabric.
func (v *svoq) release() {
	for v.credit > 0 && v.q.len() > 0 {
		p := v.q.pop()
		v.bytes -= int64(p.Size)
		v.credit -= int64(p.Size)
		v.shippedB += int64(p.Size)
		v.ship(p)
	}
	if v.q.len() == 0 && v.credit > 0 {
		// Unused credit on an empty VOQ is forfeited. A negative balance
		// (overdraft from shipping a packet larger than the final grant)
		// is kept as debt against future grants.
		v.forfeited += v.credit
		v.credit = 0
	}
}

// ship fragments one packet into cells and injects them into the cell
// fabric from the source FA's shard; the reassembly state itself is the
// ship notification scheduled onto the destination's shard.
func (v *svoq) ship(p *Packet) {
	n := v.net
	payload := n.Cfg.CellBytes - n.Cfg.CellHeader
	st := sreasmPool.Get().(*sreasm)
	st.orig = p
	st.remaining = p.Size
	st.stream = v.stream
	st.shippedAt = v.sh.sm.Now()
	st.done = false
	st.discarded = false
	// The notification beats every cell: a cell needs at least two fabric
	// hops (or, on the hairpin path, arrives at the same instant but on
	// the earlier fabric lane, which enter/deliver tolerate).
	v.shipTo.AtLane(st.shippedAt+n.Cfg.LinkDelay, v.shipLane, st, 0)
	srcFA, dstFA := v.key.src/n.hostsPer, v.key.dst/n.hostsPer
	for sent := 0; sent < p.Size; sent += payload {
		chunk := payload
		if sent+chunk > p.Size {
			chunk = p.Size - sent
		}
		c := NewPacket()
		c.Size = chunk + n.Cfg.CellHeader
		c.Flow = st
		v.sh.cellsSent++
		v.sh.shippedBytes += uint64(c.Size)
		n.fab.Inject(c, srcFA, dstFA)
	}
}
