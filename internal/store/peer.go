package store

import (
	"encoding/json"
	"io"
	"net/http"
	"time"

	"semfeed/internal/obs"
)

// maxPeerBody caps how much of a peer's response a fill will buffer: report
// JSON is small, so anything larger is a misbehaving peer, not a result.
const maxPeerBody = 8 << 20

// Peer is the HTTP fill backend: Get against another node's /v1/store
// endpoint. The key is content-addressed, so whichever node computed a
// result, every node derives the same URL for it — a cache hit needs no
// routing table, only the peer's address. Peer is a Getter, not a Store: the
// store protocol is read-only. Each node writes only results it graded
// itself, replication is the reader's pull, and the /v1/store endpoint
// rejects writes — accepting remote writes would let anyone plant a
// fabricated report under a submission's derivable key.
type Peer struct {
	base   string // http://host:port, no trailing slash
	client *http.Client
}

// NewPeer returns a store over base's /v1/store endpoint. Its client times
// out after 2 s: a peer fill that is slower than grading is worse than a
// miss.
func NewPeer(base string) *Peer {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Peer{base: base, client: &http.Client{Timeout: 2 * time.Second}}
}

// Base returns the peer's base URL.
func (p *Peer) Base() string { return p.base }

func (p *Peer) url(k Key) string { return p.base + "/v1/store/" + k.Path() }

// Get fetches k from the peer. Any transport error or non-200 is a miss. So
// is a body that is not JSON: it counts as a failed fill, and Tiered never
// backfills it.
func (p *Peer) Get(k Key) ([]byte, bool) {
	resp, err := p.client.Get(p.url(k))
	if err != nil {
		obs.StorePeerErrorsTotal.Inc()
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil || !json.Valid(body) {
		obs.StorePeerErrorsTotal.Inc()
		return nil, false
	}
	return body, true
}

// Tiered composes a local tier with a read-only fill path: reads hit Local
// first and fall through to Fallback, backfilling Local on a remote hit so
// the next read is local; writes land in Local only (the owner of a key
// writes its own copy — replication is the reader's pull, not the writer's
// push).
type Tiered struct {
	Local    Store
	Fallback Getter
}

// Get reads local-first with remote fill.
func (t *Tiered) Get(k Key) ([]byte, bool) {
	if body, ok := t.Local.Get(k); ok {
		return body, true
	}
	body, ok := t.Fallback.Get(k)
	if ok {
		t.Local.Put(k, body)
	}
	return body, ok
}

// Put writes to the local tier.
func (t *Tiered) Put(k Key, body []byte) { t.Local.Put(k, body) }

// Len reports the local tier's entry count.
func (t *Tiered) Len() int { return t.Local.Len() }

// LocalGet answers from the local tier only; the /v1/store endpoint serves
// through this so peers asking each other can never chain fills.
func (t *Tiered) LocalGet(k Key) ([]byte, bool) { return t.Local.Get(k) }
