package cluster

import (
	"semfeed/internal/obs"
	"semfeed/internal/store"
)

// peerRing is the ring-aware remote tier of a worker's store: a Get consults
// the peer that owns the key — the same (assignment, source hash) routing
// the coordinator uses, so the owner is the node most likely to have graded
// it. Keys this worker owns itself are a local miss by definition (there is
// no better copy elsewhere). It is a store.Getter, so writes are never
// pushed: the owner writes its own results, replicas pull on demand. This
// is what warms a worker that joined (or rejoined after a crash) from its
// peers instead of regrading.
type peerRing struct {
	self  string
	ring  *Ring
	peers map[string]*store.Peer
}

// NewPeerFill wraps local with a ring-aware HTTP fill path over peers.
// self must appear in peers (it identifies which keys are locally owned);
// addresses are base URLs.
func NewPeerFill(local store.Store, self string, peers []string, vnodes int) store.Store {
	p := &peerRing{self: trimSlash(self), peers: make(map[string]*store.Peer, len(peers))}
	members := make([]string, 0, len(peers))
	for _, addr := range peers {
		addr = trimSlash(addr)
		if addr == "" {
			continue
		}
		members = append(members, addr)
		if addr != p.self {
			p.peers[addr] = store.NewPeer(addr)
		}
	}
	p.ring = NewRing(members, vnodes)
	return &store.Tiered{Local: local, Fallback: p}
}

// Get asks the owning peer for k. Self-owned keys and unreachable owners are
// plain misses — peer fill is an optimization, never a dependency.
func (p *peerRing) Get(k store.Key) ([]byte, bool) {
	owner := p.ring.Lookup(RouteKey(k.Assignment, k.SourceHash))
	peer := p.peers[owner]
	if peer == nil { // self-owned or unknown
		obs.ClusterPeerFillMissesTotal.Inc()
		return nil, false
	}
	body, ok := peer.Get(k)
	if ok {
		obs.ClusterPeerFillHitsTotal.Inc()
	} else {
		obs.ClusterPeerFillMissesTotal.Inc()
	}
	return body, ok
}
