package parsim

import (
	"testing"

	"stardust/internal/sim"
)

// ringNode is a toy sharded model: tokens hop around a ring of nodes, one
// directed lane per edge, and every node folds the arrival order of the
// tokens it sees into a digest. Because arrivals are lane-ordered, the
// digests must be identical for every partitioning of the ring.
type ringNode struct {
	idx    int
	shard  int
	eng    *Engine
	nodes  []*ringNode
	assign []int
	delay  sim.Time
	digest uint64
	seen   int
	ttl    map[uint64]int // per token: remaining hops
}

// Act receives token arg and forwards it one step around the ring.
func (n *ringNode) Act(arg uint64) {
	n.seen++
	n.digest = n.digest*1099511628211 + arg + uint64(n.idx)
	if n.ttl[arg] == 0 {
		return
	}
	n.ttl[arg]--
	next := n.nodes[(n.idx+1)%len(n.nodes)]
	sched := n.eng.Shard(n.shard).To(n.assign[next.idx])
	sched.AtLane(sched.Now()+n.delay, int32(n.idx), next, arg)
}

// runRing circulates tokens over `nodes` ring nodes split across shards
// and returns the per-node digests.
func runRing(t *testing.T, shards, nodeCount int) []uint64 {
	t.Helper()
	const look = sim.Microsecond
	eng := New(Config{Shards: shards, Lookahead: look})
	assign := make([]int, nodeCount)
	for i := range assign {
		assign[i] = i * shards / nodeCount
	}
	nodes := make([]*ringNode, nodeCount)
	for i := range nodes {
		nodes[i] = &ringNode{
			idx: i, shard: assign[i], eng: eng,
			nodes: nodes, assign: assign, delay: look,
			ttl: make(map[uint64]int), // per-node budget: no cross-shard state
		}
	}
	// Seed tokens at staggered instants; every node holds a per-token hop
	// budget so tokens eventually park without any shared countdown.
	const hops = 40
	for tok := uint64(0); tok < 8; tok++ {
		for i := range nodes {
			nodes[i].ttl[tok] = hops
		}
		start := int(tok) % nodeCount
		nodes[start].eng.Shard(assign[start]).Sim().AtLane(
			sim.Time(tok)*look/3, int32((start+nodeCount-1)%nodeCount), nodes[start], tok)
	}
	eng.Run(sim.Time(hops+20) * look)
	out := make([]uint64, nodeCount)
	for i, n := range nodes {
		out[i] = n.digest
	}
	return out
}

// The flagship property: the same model produces byte-identical state at
// every shard count. One shard runs its windows inline on the calling
// goroutine and more run them in parallel, so this also compares serial
// against parallel execution.
func TestRingDeterministicAcrossShardCounts(t *testing.T) {
	ref := runRing(t, 1, 6)
	for _, shards := range []int{2, 3, 4, 6} {
		got := runRing(t, shards, 6)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d: node %d digest %x, want %x", shards, i, got[i], ref[i])
			}
		}
	}
}

func TestEngineWindowsAndHooks(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: 10 * sim.Nanosecond})
	var barriers []sim.Time
	eng.OnBarrier(func(now sim.Time) { barriers = append(barriers, now) })
	eng.Run(35 * sim.Nanosecond) // rounds up to 40: four windows
	if len(barriers) != 4 {
		t.Fatalf("%d barriers, want 4: %v", len(barriers), barriers)
	}
	for i, at := range barriers {
		if want := sim.Time(10*(i+1)) * sim.Nanosecond; at != want {
			t.Fatalf("barrier %d at %d, want %d", i, at, want)
		}
	}
	if eng.Now() != 40*sim.Nanosecond {
		t.Fatalf("Now = %d, want 40ns", eng.Now())
	}
	for i := 0; i < eng.Shards(); i++ {
		if got := eng.Shard(i).Sim().Now(); got != eng.Now() {
			t.Fatalf("shard %d clock %d, want %d", i, got, eng.Now())
		}
	}
}

// Controls run at window boundaries (rounded up), in registration order
// within a boundary, with InBarrier reporting true.
func TestEngineControls(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: 10 * sim.Nanosecond})
	var got []string
	eng.At(15*sim.Nanosecond, func() { // rounds to 20
		if !eng.InBarrier() {
			t.Error("control ran outside barrier context")
		}
		got = append(got, "a@20")
		eng.At(eng.Now()+5*sim.Nanosecond, func() { got = append(got, "c@30") })
	})
	eng.At(20*sim.Nanosecond, func() { got = append(got, "b@20") })
	eng.Run(40 * sim.Nanosecond)
	want := []string{"a@20", "b@20", "c@30"}
	if len(got) != len(want) {
		t.Fatalf("controls %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("controls %v, want %v", got, want)
		}
	}
}

func TestRunUntilQuiet(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	fired := false
	eng.Shard(1).Sim().At(3*sim.Microsecond, func() { fired = true })
	end := eng.RunUntilQuiet(sim.Second)
	if !fired {
		t.Fatal("event did not fire")
	}
	if !eng.Quiet() {
		t.Fatal("engine not quiet after drain")
	}
	if end >= sim.Second/2 {
		t.Fatalf("drain ran to %d — RunUntilQuiet did not stop when quiet", end)
	}
}

// A cross-shard send that violates the lookahead must panic loudly rather
// than corrupt causality.
func TestPortLookaheadViolationPanics(t *testing.T) {
	eng := New(Config{Shards: 2, Lookahead: sim.Microsecond})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	p := Port{src: eng.Shard(0), dst: 1}
	p.AtLane(sim.Nanosecond, 0, sim.ActionFunc(func(uint64) {}), 0)
}
