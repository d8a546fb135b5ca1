package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func ringOf(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := NewRing(nodes, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every member must build the identical ring regardless of the order
// (or duplication) of the peer list it was configured with.
func TestRingDeterministicAcrossMembers(t *testing.T) {
	a := ringOf(t, "http://n1:8080", "http://n2:8080", "http://n3:8080")
	b := ringOf(t, "http://n3:8080", "http://n1:8080", "http://n2:8080", "http://n1:8080")
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("members disagree on owner of %q: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
		ao, bo := a.Order(key), b.Order(key)
		if len(ao) != 3 || len(bo) != 3 {
			t.Fatalf("order length: %v %v", ao, bo)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("members disagree on order of %q: %v vs %v", key, ao, bo)
			}
		}
	}
}

// Order starts at the owner, visits every node exactly once, and is
// stable for a fixed key.
func TestRingOrder(t *testing.T) {
	r := ringOf(t, "http://n1:8080", "http://n2:8080", "http://n3:8080", "http://n4:8080")
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		order := r.Order(key)
		if order[0] != r.Owner(key) {
			t.Fatalf("order %v does not start at owner %s", order, r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range order {
			if seen[n] {
				t.Fatalf("order %v repeats %s", order, n)
			}
			seen[n] = true
		}
		if len(seen) != 4 {
			t.Fatalf("order %v misses nodes", order)
		}
	}
}

// Removing a node only moves keys that the dead node owned; survivors'
// keys stay put (the point of consistent hashing).
func TestRingStabilityUnderNodeLoss(t *testing.T) {
	full := ringOf(t, "http://n1:8080", "http://n2:8080", "http://n3:8080")
	reduced := ringOf(t, "http://n1:8080", "http://n2:8080")
	moved := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("key-%d", i)
		was := full.Owner(key)
		now := reduced.Owner(key)
		if was != "http://n3:8080" {
			if was != now {
				t.Fatalf("key %q moved from surviving node %s to %s", key, was, now)
			}
			continue
		}
		moved++
		// An orphaned key must land on the dead node's ring successor.
		order := full.Order(key)
		if order[1] != now {
			t.Fatalf("orphaned key %q went to %s, ring successor is %s", key, now, order[1])
		}
	}
	if moved == 0 {
		t.Fatal("no keys owned by n3 in the sample — test is vacuous")
	}
}

// Virtual nodes keep placement roughly balanced.
func TestRingShares(t *testing.T) {
	r := ringOf(t, "http://n1:8080", "http://n2:8080", "http://n3:8080")
	shares := r.Shares()
	var sum float64
	for node, s := range shares {
		sum += s
		if s < 0.15 || s > 0.55 {
			t.Fatalf("node %s share %.3f is badly unbalanced", node, s)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %.4f", sum)
	}
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, DefaultVNodes); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewRing([]string{"http://a", ""}, DefaultVNodes); err == nil {
		t.Fatal("empty address accepted")
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := ringOf(t, "http://solo:8080")
	if r.Owner("anything") != "http://solo:8080" {
		t.Fatal("single node does not own everything")
	}
	if o := r.Order("anything"); len(o) != 1 || o[0] != "http://solo:8080" {
		t.Fatalf("order %v", o)
	}
}

// randomRings builds count rings of 2..8 distinct random localhost
// nodes — the membership shape of a real deployment, where node names
// share everything but the port.
func randomRings(t *testing.T, count int) []*Ring {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var out []*Ring
	for len(out) < count {
		n := 2 + rng.Intn(7)
		var nodes []string
		for i := 0; i < n; i++ {
			nodes = append(nodes, fmt.Sprintf("http://127.0.0.1:%d", 1024+rng.Intn(64000)))
		}
		r := ringOf(t, nodes...)
		if len(r.Nodes()) == n {
			out = append(out, r)
		}
	}
	return out
}

// Property: on any membership, every node's share of a uniform key
// population stays within the bound DefaultVNodes promises (25% of an
// equal share), measured both by arc length and by sampled keys.
func TestRingSharesBoundedOnRandomMembership(t *testing.T) {
	for _, r := range randomRings(t, 200) {
		n := float64(len(r.Nodes()))
		for node, s := range r.Shares() {
			if dev := math.Abs(s*n - 1); dev > 0.25 {
				t.Fatalf("ring %v: %s owns %.3f, %.0f%% off an equal share", r.Nodes(), node, s, 100*dev)
			}
		}
	}
	r := randomRings(t, 1)[0]
	owned := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		owned[r.Owner(fmt.Sprintf("%064x", i))]++
	}
	for node, want := range r.Shares() {
		if got := float64(owned[node]) / keys; math.Abs(got-want) > 0.03 {
			t.Fatalf("%s owns %.3f of sampled keys, arcs say %.3f", node, got, want)
		}
	}
}

// Property: on any membership, every ordered pair of nodes occurs as
// (owner, failover successor) for some key, so a failover test can
// always find a key with the placement it wants.
func TestRingEveryOwnerSuccessorPairReachable(t *testing.T) {
	for _, r := range randomRings(t, 200) {
		n := len(r.Nodes())
		pairs := map[[2]int]bool{}
		for i, p := range r.points {
			if next := r.points[(i+1)%len(r.points)].node; next != p.node {
				pairs[[2]int{p.node, next}] = true
			}
		}
		if len(pairs) != n*(n-1) {
			t.Fatalf("ring %v: only %d of %d ordered (owner, successor) pairs occur", r.Nodes(), len(pairs), n*(n-1))
		}
	}
}
