package netsim

import (
	"fmt"

	"stardust/internal/parsim"
	"stardust/internal/sim"
)

// StardustConfig parameterizes the Stardust transport of the §6.3 htsim
// comparison (Appendix G): 512B cells, 4KB credits, 3% credit speed-up,
// ingress VOQs at the source Fabric Adapter and a round-robin egress
// scheduler per destination port. TrunkRate, TrunkBytes and FabricHops
// size the fluid trunk fabric (NewTrunkFabric) and nothing else.
type StardustConfig struct {
	CellBytes   int     // cell size on the wire (512)
	CellHeader  int     // header bytes within each cell (8)
	CreditBytes int64   // credit quantum (4096)
	SpeedUp     float64 // credit rate / port rate (1.03)

	HostRate   Bps      // edge port rate (10G)
	TrunkRate  Bps      // aggregate uplink rate per Fabric Adapter (trunk fabric)
	LinkDelay  sim.Time // per-hop propagation
	FabricHops int      // hops across the trunk fabric (4 in a 2-tier Clos)
	CtrlDelay  sim.Time // control-message (request/credit) one-way delay

	VOQBytes   int // per-VOQ ingress buffer (§3.3: MBs to GBs at the FA)
	NICBytes   int // host NIC queue into the source FA
	TrunkBytes int // trunk queue capacity (trunk fabric)
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

// TrunkFabric is the fluid Appendix G fabric: each Fabric Adapter reaches
// the fabric through one up-trunk queue at its aggregate uplink rate, the
// crossing is FabricHops link delays, and cells leave through the
// destination adapter's down-trunk queue — §5.3's near-perfect spraying
// taken as given instead of simulated per link. It implements CellFabric
// beside the per-link *fabric.Net, so both run under the one transport.
type TrunkFabric struct {
	eng    *parsim.Engine
	numFA  int
	shard  []int       // per FA
	up     []*Queue    // per FA: into the fabric
	down   []*Queue    // per FA: out of the fabric
	routes [][]Handler // per (src, dst) FA pair: up, crossing, down, egress
}

// NewTrunkFabric builds the trunk fabric for numFA Fabric Adapters over
// eng, FAs assigned to shards in contiguous blocks. FA src's crossing is a
// LanePipe on lane src, so cells reaching one down trunk at the same
// instant queue in source order at any shard count.
func NewTrunkFabric(eng *parsim.Engine, cfg StardustConfig, numFA int) (*TrunkFabric, error) {
	cross := sim.Time(cfg.FabricHops) * cfg.LinkDelay
	switch {
	case numFA < 1:
		return nil, fmt.Errorf("netsim: trunk fabric needs an FA, got %d", numFA)
	case cfg.TrunkRate <= 0 || cfg.TrunkBytes <= 0:
		return nil, fmt.Errorf("netsim: trunk fabric needs positive trunk rate and capacity")
	case cross < eng.Lookahead():
		return nil, fmt.Errorf("netsim: trunk crossing %d below engine lookahead %d", cross, eng.Lookahead())
	}
	t := &TrunkFabric{eng: eng, numFA: numFA, shard: make([]int, numFA)}
	for fa := range numFA {
		t.shard[fa] = fa * eng.Shards() / numFA
		sm := eng.Shard(t.shard[fa]).Sim()
		t.up = append(t.up, NewQueue(sm, fmt.Sprintf("sd-up%d", fa), cfg.TrunkRate, cfg.TrunkBytes, 0))
		t.down = append(t.down, NewQueue(sm, fmt.Sprintf("sd-dn%d", fa), cfg.TrunkRate, cfg.TrunkBytes, 0))
	}
	t.routes = make([][]Handler, numFA*numFA)
	for src := range numFA {
		pipes := make([]*LanePipe, eng.Shards()) // per destination shard
		for dst := range numFA {
			to := t.shard[dst]
			if pipes[to] == nil {
				pipes[to] = &LanePipe{Sched: eng.Shard(t.shard[src]).To(to), Delay: cross, Lane: int32(src)}
			}
			t.routes[src*numFA+dst] = []Handler{t.up[src], pipes[to], t.down[dst], nil}
		}
	}
	return t, nil
}

// Inject sends one cell from srcFA's up trunk to dstFA's egress endpoint.
func (t *TrunkFabric) Inject(c *Packet, srcFA, dstFA int) {
	c.SetRoute(t.routes[srcFA*t.numFA+dstFA])
	c.SendOn()
}

// SetEgress installs h as the last hop of every route into FA fa.
func (t *TrunkFabric) SetEgress(fa int, h Handler) {
	for src := range t.numFA {
		t.routes[src*t.numFA+fa][3] = h
	}
}

// Drops counts cells tail-dropped by the trunks (barrier context only).
func (t *TrunkFabric) Drops() uint64 {
	var d uint64
	for fa := range t.numFA {
		d += t.up[fa].Drops + t.down[fa].Drops
	}
	return d
}

// Engine returns the parsim engine the fabric runs on.
func (t *TrunkFabric) Engine() *parsim.Engine { return t.eng }

// NumFA returns the number of Fabric Adapters.
func (t *TrunkFabric) NumFA() int { return t.numFA }

// ShardOfFA returns the shard owning FA fa's trunks.
func (t *TrunkFabric) ShardOfFA(fa int) int { return t.shard[fa] }

// Lanes returns the first lane after the crossings' one lane per FA.
func (t *TrunkFabric) Lanes() int32 { return int32(t.numFA) }

// GroupOfFA returns 0: the trunk fabric never migrates an FA, so every
// event stays in the immovable group.
func (t *TrunkFabric) GroupOfFA(int) int32 { return 0 }

// LaneGroups returns nil: every lane belongs to group 0.
func (t *TrunkFabric) LaneGroups() []int32 { return nil }

// OnMigrateFA is a no-op: the trunk fabric never migrates.
func (t *TrunkFabric) OnMigrateFA(func(fa, from, to int)) {}
