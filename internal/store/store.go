// Package store is the pluggable content-addressed result store behind the
// grading service's cache: rendered report JSON keyed by (assignment, KB
// version, source hash). The key is pure content — two processes that grade
// the same submission against the same KB derive the same key without
// coordination, which is what lets a cluster of workers share results. Three
// backends implement the contract: an in-memory LRU (the original
// single-process cache), a disk store (content-addressed files that survive
// restarts), and an HTTP peer store (a worker serving its cache over the
// wire). Tiered composes a local tier with a remote fill path.
//
// Bodies are JSON, and the grading service writes a hit into its reply
// without parsing it again. Each backend checks the bytes where they enter
// the process: Disk drops a file that is not valid JSON and misses, Peer
// counts a body that is not JSON as a failed fill and misses, and Memory
// holds only what this process put there, its own marshalled reports or a
// fill that Peer has checked.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"strings"
)

// Key identifies one graded result. All three components are part of the
// identity: the KB version component means a hot-reloaded knowledge base
// naturally misses (stale feedback is unreachable, not invalidated), and the
// source hash makes the key content-addressed — it never depends on which
// node computed it.
type Key struct {
	Assignment string
	KBVersion  string
	SourceHash string // lowercase hex SHA-256 of the submission source
}

// NewKey hashes source into a Key.
func NewKey(assignment, kbVersion, source string) Key {
	return Key{Assignment: assignment, KBVersion: kbVersion, SourceHash: SourceHash(source)}
}

// SourceHash is the canonical submission digest: lowercase hex SHA-256.
func SourceHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// String renders the key in the NUL-separated form used as a map key (the
// wire form is Path). Assignment IDs and KB versions never contain NUL.
func (k Key) String() string {
	return k.Assignment + "\x00" + k.KBVersion + "\x00" + k.SourceHash
}

// Path renders the key as three URL path segments, the form the /v1/store
// endpoint serves: <assignment>/<kb-version>/<source-hash>, each escaped.
func (k Key) Path() string {
	return url.PathEscape(k.Assignment) + "/" + url.PathEscape(k.KBVersion) + "/" + url.PathEscape(k.SourceHash)
}

// ParsePath inverts Path. It rejects keys with empty components or a
// malformed source hash, so a stray URL cannot plant garbage in a store.
func ParsePath(p string) (Key, bool) {
	parts := strings.Split(strings.Trim(p, "/"), "/")
	if len(parts) != 3 {
		return Key{}, false
	}
	a, err1 := url.PathUnescape(parts[0])
	v, err2 := url.PathUnescape(parts[1])
	h, err3 := url.PathUnescape(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || a == "" || v == "" || !validHexHash(h) {
		return Key{}, false
	}
	return Key{Assignment: a, KBVersion: v, SourceHash: h}, true
}

func validHexHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Store is the result-store contract. Get and Put must be safe for
// concurrent use. Put is best-effort: a backend may drop writes (size cap,
// I/O error, remote unreachable) without reporting it — the caller always
// has the freshly computed result in hand, so a lost write only costs a
// future recompute.
type Store interface {
	// Get returns the stored body for k, if present.
	Get(k Key) ([]byte, bool)
	// Put stores body under k, evicting as needed.
	Put(k Key, body []byte)
	// Len reports the number of locally held entries (0 for purely remote
	// backends).
	Len() int
}

// Getter is the read-only side of Store: the contract of a fill tier, which
// only ever answers reads (see Tiered).
type Getter interface {
	Get(k Key) ([]byte, bool)
}

// LocalGetter is implemented by composite stores that can answer from their
// local tier only. The /v1/store endpoint uses it so one worker asking
// another for a key can never trigger a recursive remote fill.
type LocalGetter interface {
	LocalGet(k Key) ([]byte, bool)
}

// LocalGet reads from s's local tier when it has one, else from s itself.
func LocalGet(s Store, k Key) ([]byte, bool) {
	if lg, ok := s.(LocalGetter); ok {
		return lg.LocalGet(k)
	}
	return s.Get(k)
}
