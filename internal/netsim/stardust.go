package netsim

import (
	"fmt"
	"sync"

	"stardust/internal/sched"
	"stardust/internal/sim"
)

// StardustConfig parameterizes the abstract Stardust model used in the
// §6.3 htsim comparison (Appendix G): 512B cells, 4KB credits, 3% credit
// speed-up, ingress VOQs at the source Fabric Adapter and a round-robin
// egress scheduler per destination port.
type StardustConfig struct {
	CellBytes   int     // cell size on the wire (512)
	CellHeader  int     // header bytes within each cell (8)
	CreditBytes int64   // credit quantum (4096)
	SpeedUp     float64 // credit rate / port rate (1.03)

	HostRate   Bps      // edge port rate (10G)
	TrunkRate  Bps      // aggregate uplink rate per Fabric Adapter
	LinkDelay  sim.Time // per-hop propagation
	FabricHops int      // hops across the fabric (4 in a 2-tier Clos)
	CtrlDelay  sim.Time // control-message (request/credit) one-way delay

	VOQBytes   int // per-VOQ ingress buffer (§3.3: MBs to GBs at the FA)
	NICBytes   int // host NIC queue into the source FA
	TrunkBytes int // trunk queue capacity
	PortBytes  int // egress port queue capacity
	// Egress watermarks (§4.1): the port's credit scheduler pauses above
	// PauseBytes and resumes below ResumeBytes, keeping the egress buffer
	// just full enough to ride through scheduling jitter.
	PauseBytes  int
	ResumeBytes int
	// ReasmTimeout is the destination adapter's reassembly timer (§4.1): a
	// packet whose cells stall the in-order delivery stream longer than
	// this (a cell lost to a failed link) is discarded so the stream can
	// resume. 0 disables discarding (safe only in loss-free fabrics).
	ReasmTimeout sim.Time
}

// DefaultStardust returns the Appendix G configuration for a fat-tree with
// uplinks aggregate uplink capacity per edge device.
func DefaultStardust(hostRate Bps, uplinks int, linkDelay sim.Time) StardustConfig {
	return StardustConfig{
		CellBytes:   512,
		CellHeader:  8,
		CreditBytes: 4096,
		SpeedUp:     1.03,
		HostRate:    hostRate,
		// The fabric runs with a small speed-up over the edge (§6.2 uses
		// 1.05), so the 3% credit speed-up cannot slowly flood the trunks.
		TrunkRate:   Bps(float64(hostRate) * float64(uplinks) * 1.05),
		LinkDelay:   linkDelay,
		FabricHops:  4,
		CtrlDelay:   2 * linkDelay,
		VOQBytes:    8 << 20, // the FA's deep ingress buffer absorbs bursts (§5.4)
		NICBytes:    2 << 20,
		TrunkBytes:  1 << 20,
		PortBytes:   100 * 9000,
		PauseBytes:  4 * 9000,
		ResumeBytes: 2 * 9000,
		// A few fabric RTTs: long enough that spraying skew never trips it,
		// short enough that a lost cell does not stall a stream visibly.
		ReasmTimeout: 500 * sim.Microsecond,
	}
}

// StardustNet models the Stardust data center as a transport substrate:
// host packets enter a per-flow VOQ at their source Fabric Adapter, wait
// for credits from the destination port's scheduler, and cross the fabric
// as cells sprayed over the adapter's uplinks (modelled as a fluid trunk —
// §5.3's measured near-perfect balancing). Reassembled packets continue on
// their original route, so TCP endpoints plug in unchanged.
type StardustNet struct {
	Cfg StardustConfig
	Sim *sim.Simulator

	hosts    int
	hostsPer int // hosts per edge device (ToR / Fabric Adapter)

	upTrunk   []*Queue // per edge device: into the fabric
	downTrunk []*Queue // per edge device: out of the fabric
	port      []*Queue // per host: egress port
	hostUp    []*Queue // per host: NIC into the source FA
	// fabric is the cells' crossing between the trunks: a pipe of
	// FabricHops link delays. The reassembly tests swap in a lossy,
	// reordering crossing before creating flows.
	fabric Handler
	reasmH HandlerFunc // shared terminal handler for cells

	scheds  []*sched.PortScheduler // per destination host
	credits []creditDelivery       // per destination host (sim.Action)
	timers  []*sim.Timer
	voqs    map[voqKey]*stardustVOQ
	nextVID uint16

	// Stats
	CellsSent      uint64
	CellsDelivered uint64 // cells that reached the destination adapter
	CreditsSent    uint64
	VOQDrops       uint64
	ReasmTimeouts  uint64 // packets discarded by the reassembly timer
}

type voqKey struct {
	src, dst int // host indices
}

// NewStardustNet builds the substrate for hosts end hosts with hostsPer
// hosts per edge device.
func NewStardustNet(s *sim.Simulator, cfg StardustConfig, hosts, hostsPer int) (*StardustNet, error) {
	if hosts < 2 || hostsPer < 1 || hosts%hostsPer != 0 {
		return nil, fmt.Errorf("netsim: bad stardust sizing %d/%d", hosts, hostsPer)
	}
	if cfg.CellBytes <= cfg.CellHeader {
		return nil, fmt.Errorf("netsim: cell too small")
	}
	n := &StardustNet{
		Cfg:      cfg,
		Sim:      s,
		hosts:    hosts,
		hostsPer: hostsPer,
		fabric:   NewPipe(s, sim.Time(cfg.FabricHops)*cfg.LinkDelay),
		voqs:     make(map[voqKey]*stardustVOQ),
	}
	n.reasmH = n.reassemble
	edges := hosts / hostsPer
	for e := 0; e < edges; e++ {
		n.upTrunk = append(n.upTrunk, NewQueue(s, fmt.Sprintf("sd-up%d", e), cfg.TrunkRate, cfg.TrunkBytes, 0))
		n.downTrunk = append(n.downTrunk, NewQueue(s, fmt.Sprintf("sd-dn%d", e), cfg.TrunkRate, cfg.TrunkBytes, 0))
	}
	for h := 0; h < hosts; h++ {
		n.port = append(n.port, NewQueue(s, fmt.Sprintf("sd-port%d", h), cfg.HostRate, cfg.PortBytes, 0))
		n.hostUp = append(n.hostUp, NewQueue(s, fmt.Sprintf("sd-nic%d", h), cfg.HostRate, cfg.NICBytes, 0))
		sc := sched.New(sched.Config{
			PortRateBps:     float64(cfg.HostRate),
			CreditBytes:     cfg.CreditBytes,
			SpeedupFraction: cfg.SpeedUp - 1,
		})
		n.scheds = append(n.scheds, sc)
	}
	n.credits = make([]creditDelivery, hosts)
	// Credit generation loops, one per destination host port.
	for h := 0; h < hosts; h++ {
		h := h
		n.credits[h] = creditDelivery{net: n, dst: h}
		tmr := sim.NewTimer(s)
		n.timers = append(n.timers, tmr)
		var loop func()
		loop = func() {
			sc := n.scheds[h]
			// Egress-buffer watermarks gate credit generation (§4.1).
			if occ := n.port[h].Bytes(); occ > n.Cfg.PauseBytes {
				sc.Pause()
			} else if occ < n.Cfg.ResumeBytes {
				sc.Resume()
			}
			if c, ok := sc.NextCredit(); ok {
				n.CreditsSent++
				// Pack (source host, credit bytes) into the action arg so
				// delivering a credit does not allocate.
				arg := uint64(c.To.SrcFA)<<32 | uint64(uint32(c.Bytes))
				s.AfterAction(n.Cfg.CtrlDelay, &n.credits[h], arg)
			}
			tmr.Arm(sc.CreditInterval(), loop)
		}
		tmr.Arm(n.scheds[h].CreditInterval(), loop)
	}
	return n, nil
}

// creditDelivery delivers a granted credit to the source VOQ after the
// control-plane delay; it implements sim.Action with the source host and
// byte count packed into the arg.
type creditDelivery struct {
	net *StardustNet
	dst int
}

// Act implements sim.Action.
func (c *creditDelivery) Act(arg uint64) {
	src := int(arg >> 32)
	bytes := int64(uint32(arg))
	if v := c.net.voqs[voqKey{src: src, dst: c.dst}]; v != nil {
		v.grant(bytes)
	}
}

// edge returns the edge device of a host.
func (n *StardustNet) edge(h int) int { return h / n.hostsPer }

// Route returns the forward route for a flow src -> dst: NIC queue, VOQ
// capture, then (after reassembly) the destination port queue and a final
// propagation hop. The caller appends the receiving endpoint.
func (n *StardustNet) Route(src, dst int) []Handler {
	v := n.voq(src, dst)
	final := NewPipe(n.Sim, n.Cfg.LinkDelay)
	return []Handler{n.hostUp[src], NewPipe(n.Sim, n.Cfg.LinkDelay), v, n.port[dst], final}
}

func (n *StardustNet) voq(src, dst int) *stardustVOQ {
	k := voqKey{src, dst}
	if v, ok := n.voqs[k]; ok {
		return v
	}
	n.nextVID++
	v := &stardustVOQ{
		net: n, key: k, id: n.nextVID,
		reasmTmr: sim.NewTimer(n.Sim),
	}
	v.reasmFn = v.deliver
	// The cell route across the fabric is fixed per VOQ; build it once.
	v.cellRoute = []Handler{n.upTrunk[n.edge(src)], n.fabric, n.downTrunk[n.edge(dst)], n.reasmH}
	n.voqs[k] = v
	return v
}

// TotalDrops counts drops across all Stardust queues.
func (n *StardustNet) TotalDrops() uint64 {
	var d uint64
	for _, q := range n.upTrunk {
		d += q.Drops
	}
	for _, q := range n.downTrunk {
		d += q.Drops
	}
	for _, q := range n.port {
		d += q.Drops
	}
	for _, q := range n.hostUp {
		d += q.Drops
	}
	return d + n.VOQDrops
}

// FabricDrops counts drops inside the fabric only (§5.5: must stay zero
// under credit pacing on a healthy fabric).
func (n *StardustNet) FabricDrops() uint64 {
	var d uint64
	for _, q := range n.upTrunk {
		d += q.Drops
	}
	for _, q := range n.downTrunk {
		d += q.Drops
	}
	return d
}

// stardustVOQ captures packets at the source Fabric Adapter until credits
// release them as cells (§3.3).
type stardustVOQ struct {
	net *StardustNet
	key voqKey
	id  uint16

	q         pktRing
	bytes     int64
	credit    int64
	cellRoute []Handler
	flight    ring[*reasmState] // in-flight packets, ship order (in-order delivery)
	// reasmTmr keeps the §4.1 reassembly timer armed while packets are
	// outstanding: it is the only thing that can unwedge a head-of-line
	// packet whose cells were all lost (no later completion would ever
	// call deliver otherwise).
	reasmTmr *sim.Timer
	reasmFn  func()
}

// Receive implements Handler: a packet arrives from the host NIC.
func (v *stardustVOQ) Receive(p *Packet) {
	if v.bytes+int64(p.Size) > int64(v.net.Cfg.VOQBytes) {
		v.net.VOQDrops++
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
// scheduler after the control-plane delay. The VOQ itself is the scheduled
// action with the backlog in the arg, so requesting does not allocate.
func (v *stardustVOQ) refreshRequest() {
	v.net.Sim.AfterAction(v.net.Cfg.CtrlDelay, v, uint64(v.bytes))
}

// Act implements sim.Action: the backlog advertisement arrives at the
// destination scheduler.
func (v *stardustVOQ) Act(backlog uint64) {
	v.net.scheds[v.key.dst].Request(sched.Requester{SrcFA: uint16(v.key.src), TC: 0}, int64(backlog))
}

func (v *stardustVOQ) grant(bytes int64) {
	v.credit += bytes
	v.release()
	v.refreshRequest()
}

// release dequeues whole packets against the credit balance and ships them
// as cells across the fabric (§3.4 packing: the batch is fragmented as one
// unit; we account the cell-header tax on each cell).
func (v *stardustVOQ) release() {
	for v.credit > 0 && v.q.len() > 0 {
		p := v.q.pop()
		v.bytes -= int64(p.Size)
		v.credit -= int64(p.Size)
		v.ship(p)
	}
	if v.q.len() == 0 && v.credit > 0 {
		v.credit = 0 // unused credit on an empty VOQ is forfeited
	}
}

// reasmState tracks one packet's cells at the destination adapter.
type reasmState struct {
	orig      *Packet
	remaining int
	voq       *stardustVOQ
	shippedAt sim.Time
	done      bool // all cells arrived, waiting for in-order delivery
	discarded bool // reassembly timer fired; late cells just drain
}

var reasmPool = sync.Pool{New: func() any { return new(reasmState) }}

func (v *stardustVOQ) ship(p *Packet) {
	n := v.net
	payload := n.Cfg.CellBytes - n.Cfg.CellHeader
	state := reasmPool.Get().(*reasmState)
	state.orig = p
	state.remaining = p.Size
	state.voq = v
	state.shippedAt = n.Sim.Now()
	state.done = false
	state.discarded = false
	v.flight.push(state)
	// An armed timer always expires at or before the current head's
	// deadline (heads ship in order), so arming only when disarmed keeps
	// exactly one outstanding event per VOQ per timeout window.
	if n.Cfg.ReasmTimeout > 0 && !v.reasmTmr.Armed() {
		v.reasmTmr.Arm(n.Cfg.ReasmTimeout, v.reasmFn)
	}
	for sent := 0; sent < p.Size; sent += payload {
		chunk := payload
		if sent+chunk > p.Size {
			chunk = p.Size - sent
		}
		c := NewPacket()
		c.Size = chunk + n.Cfg.CellHeader
		c.Flow = state
		n.CellsSent++
		c.SetRoute(v.cellRoute)
		c.SendOn()
	}
}

// reassemble runs at the destination adapter: cells tick their packet's
// outstanding byte count down; completed packets are handed to the owning
// VOQ's in-order delivery stream.
func (n *StardustNet) reassemble(c *Packet) {
	state, ok := c.Flow.(*reasmState)
	if !ok {
		c.Release() // foreign cell from a misbehaving fabric: not ours, not counted
		return
	}
	payload := c.Size - n.Cfg.CellHeader
	c.Release()
	n.CellsDelivered++
	state.remaining -= payload
	if state.remaining > 0 {
		return
	}
	if state.discarded {
		// The reassembly timer gave up on this packet and its stragglers
		// have now all drained; the state can be reused.
		reasmPool.Put(state)
		return
	}
	state.done = true
	state.voq.deliver()
}

// deliver releases completed packets in ship order (§4.1 in-order
// reassembly at the destination FA). A head-of-line packet whose cells
// were lost in the fabric would stall the stream forever, so it is
// discarded once it outlives the reassembly timer.
func (v *stardustVOQ) deliver() {
	n := v.net
	now := n.Sim.Now()
	for v.flight.len() > 0 {
		head := v.flight.peek()
		if head.done {
			v.flight.pop()
			orig := head.orig
			head.orig = nil
			reasmPool.Put(head)
			orig.SendOn()
			continue
		}
		if n.Cfg.ReasmTimeout > 0 && now-head.shippedAt > n.Cfg.ReasmTimeout {
			v.flight.pop()
			head.discarded = true
			head.orig.Release()
			head.orig = nil
			n.ReasmTimeouts++
			continue
		}
		break
	}
	// Re-arm for the blocked head's deadline so the discard fires even if
	// nothing else ever completes on this VOQ.
	if n.Cfg.ReasmTimeout > 0 && v.flight.len() > 0 && !v.reasmTmr.Armed() {
		head := v.flight.peek()
		v.reasmTmr.Arm(head.shippedAt+n.Cfg.ReasmTimeout-now+sim.Nanosecond, v.reasmFn)
	}
}
