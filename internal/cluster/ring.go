// Package cluster is the horizontal scale-out layer: a coordinator that
// consistent-hash-routes grading requests over a ring of workers, with
// health-checked membership, bounded retry-on-next-replica for idempotent
// grades, sharded batch fan-out, and a ring-aware peer-fill store so workers
// serve cache hits for the keys they own. Routing is by
// (assignment, source hash) — deliberately not the KB version, so a rolling
// knowledge-base update never remaps the ring.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring: each member contributes vnodes
// points on a 64-bit circle, and a key routes to the member owning the first
// point clockwise of the key's hash. Immutability is the concurrency story —
// membership changes build a new Ring and publish it through an
// atomic.Pointer swap, so routing never takes a lock.
type Ring struct {
	members []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// DefaultVNodes is the virtual-node count per member: high enough that a
// 4-worker ring balances within a few percent, low enough that building a
// ring is microseconds.
const DefaultVNodes = 160

// NewRing builds a ring over members (deduplicated, order-insensitive) with
// the given virtual-node count per member (<= 0 uses DefaultVNodes). An
// empty member list yields a ring whose Lookup returns "".
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m != "" && !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashString(fmt.Sprintf("%s#%d", m, v)), member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// hashString is SHA-256 truncated to 64 bits. The similar, short strings
// being hashed (worker URLs with a vnode suffix; assignment + source hash)
// need real avalanche for the ring to balance — FNV-1a measurably skews
// vnode placement here — and at ~100ns per key the cost is noise against
// the HTTP hop the lookup is routing.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// RouteKey is the routing identity of a grade: assignment plus source hash.
// The KB version is excluded on purpose — rolling a knowledge base forward
// must not reshuffle which worker owns a submission.
func RouteKey(assignment, sourceHash string) string {
	return assignment + "\x00" + sourceHash
}

// Lookup returns the member owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	owners := r.LookupN(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// LookupN returns up to n distinct members in preference order: the owner
// first, then the successive distinct members clockwise — the replicas a
// coordinator retries an idempotent grade on when the owner is down.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := hashString(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		p := r.points[(i+j)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}

// Members returns the ring's distinct members, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Size returns the number of distinct members.
func (r *Ring) Size() int { return len(r.members) }

// Shares returns each member's fraction of the 64-bit hash circle — the
// expected share of route keys it owns. With DefaultVNodes the shares sit
// within a few percent of 1/n; a larger spread in statusz means the vnode
// count is too low for the member count.
func (r *Ring) Shares() map[string]float64 {
	if len(r.points) == 0 {
		return map[string]float64{}
	}
	if len(r.members) == 1 {
		return map[string]float64{r.members[0]: 1}
	}
	const circle = float64(1<<63) * 2 // 2^64 as a float
	arcs := make(map[string]float64, len(r.members))
	// points are sorted; point i owns the arc (points[i-1], points[i]], with
	// the first point owning the wrap-around arc past the last. Unsigned
	// subtraction wraps mod 2^64, which is exactly the circular distance.
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		arcs[r.members[p.member]] += float64(p.hash-prev) / circle
		prev = p.hash
	}
	return arcs
}
