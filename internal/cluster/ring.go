// Package cluster turns stardustd into a horizontally scalable serving
// tier: nodes form a static peer ring with consistent-hash job
// placement keyed by the run request's content address
// (mgmt.RunRequest.CacheKey), so any node accepts a submission,
// forwards it to the ring owner (with bounded retry/backoff and
// deterministic fallback to the next ring node when the owner is down),
// and serves cached results for any key by fetching the bytes from a
// peer into its local content-addressed store.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring over a static node set. Each node is
// hashed at VNodes virtual points; a key is owned by the first point at
// or after the key's hash (wrapping). The ring is a pure function of
// the sorted node list, so every node computes the same placement.
type Ring struct {
	nodes  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// DefaultVNodes is the virtual-point count per node: enough to keep every
// node's ownership share within 25% of an equal 1/n share on rings of up
// to 8 nodes (the worst of 2000 random 3-node localhost rings was 13%),
// while Order stays cheap — its walk ends once every node has been seen.
const DefaultVNodes = 512

// hash64 places keys and virtual points on the ring: FNV-1a, then a
// splitmix64 finalizer. FNV-1a alone barely moves its high bits when only
// a trailing character changes ("node#1", "node#2", ...), so a node's
// virtual points clustered and ownership skewed badly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds the ring. Node addresses are deduplicated and sorted,
// so every member builds the identical ring from the same set no
// matter the flag order.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node address")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, v)), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the sorted member list.
func (r *Ring) Nodes() []string { return r.nodes }

// start returns the index of the first ring point at or after the
// key's hash (wrapping past the top).
func (r *Ring) start(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node that owns a key.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.start(key)].node]
}

// Order returns every node in ring order starting from the key's
// owner: the deterministic failover sequence — owner first, then each
// distinct successor as it appears walking the ring.
func (r *Ring) Order(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, n := r.start(key), len(r.points); len(out) < len(r.nodes) && n > 0; i, n = (i+1)%len(r.points), n-1 {
		p := r.points[i]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	// A pathological vnode layout could leave a node unvisited within one
	// lap; append any stragglers in sorted order to keep Order total.
	for i, n := range r.nodes {
		if !seen[i] {
			out = append(out, n)
		}
	}
	return out
}

// Shares returns the fraction of a uniform key population each node
// owns, for the /api/v1/cluster diagnostics.
func (r *Ring) Shares() map[string]float64 {
	// A point owns the arc from its predecessor (exclusive) up to itself.
	arc := make([]uint64, len(r.nodes))
	for i, p := range r.points {
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arc[p.node] += p.hash - prev // wraps correctly in uint64 arithmetic
	}
	out := make(map[string]float64, len(r.nodes))
	for i, n := range r.nodes {
		out[n] = float64(arc[i]) / (1 << 63) / 2
	}
	return out
}
