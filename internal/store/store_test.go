package store

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"semfeed/internal/obs"
)

func k(a, v, src string) Key { return NewKey(a, v, src) }

func TestKeyPathRoundTrip(t *testing.T) {
	cases := []Key{
		NewKey("assignment1", "builtin", "int x = 0;"),
		NewKey("lab/3", "0a1b2c3d4e5f", "y"),
		NewKey("weird id%", "v 1", "z"),
	}
	for _, want := range cases {
		got, ok := ParsePath(want.Path())
		if !ok {
			t.Fatalf("ParsePath(%q) rejected", want.Path())
		}
		if got != want {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestParsePathRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"a/b",
		"a/b/c/d",
		"a/b/nothex",
		"a/b/" + fmt.Sprintf("%064s", "Z"), // uppercase / non-hex
		"/b/" + SourceHash("x"),            // empty assignment
	}
	for _, p := range bad {
		if _, ok := ParsePath(p); ok {
			t.Errorf("ParsePath(%q) accepted, want reject", p)
		}
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	m := NewMemory(2)
	m.Put(k("a", "v", "1"), []byte("one"))
	m.Put(k("a", "v", "2"), []byte("two"))
	if _, ok := m.Get(k("a", "v", "1")); !ok { // promote 1
		t.Fatal("entry 1 missing")
	}
	m.Put(k("a", "v", "3"), []byte("three")) // evicts 2, the LRU
	if _, ok := m.Get(k("a", "v", "2")); ok {
		t.Fatal("entry 2 should have been evicted")
	}
	if body, ok := m.Get(k("a", "v", "1")); !ok || string(body) != "one" {
		t.Fatalf("entry 1 = %q, %v", body, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
}

func TestTieredBackfill(t *testing.T) {
	local := NewMemory(8)
	remote := NewMemory(8)
	tiered := &Tiered{Local: local, Fallback: remote}

	key := k("a", "v", "src")
	remote.Put(key, []byte("body"))

	if body, ok := tiered.Get(key); !ok || string(body) != "body" {
		t.Fatalf("tiered Get = %q, %v", body, ok)
	}
	// The hit must have backfilled the local tier.
	if body, ok := local.Get(key); !ok || string(body) != "body" {
		t.Fatalf("local tier not backfilled: %q, %v", body, ok)
	}
	// LocalGet must not consult the fallback.
	miss := k("a", "v", "other")
	remote.Put(miss, []byte("remote-only"))
	if _, ok := tiered.LocalGet(miss); ok {
		t.Fatal("LocalGet consulted the fallback tier")
	}
	// Puts land locally, not remotely.
	put := k("a", "v", "put")
	tiered.Put(put, []byte("x"))
	if _, ok := remote.Get(put); ok {
		t.Fatal("Tiered.Put wrote to the fallback tier")
	}
}

// TestPeerStoreHTTP runs a Peer against a stub /v1/store endpoint. The
// protocol is read-only: the stub serves GET only, mirroring the real
// endpoint, and Peer (a Getter, with no Put) must never write to the wire.
func TestPeerStoreHTTP(t *testing.T) {
	backing := NewMemory(8)
	var puts int
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/store/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			puts++
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		key, ok := ParsePath(r.URL.Path[len("/v1/store/"):])
		if !ok {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		body, ok := backing.Get(key)
		if !ok {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write(body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p := NewPeer(srv.URL + "/") // trailing slash must be tolerated
	key := k("assignment1", "deadbeef", "src")

	if _, ok := p.Get(key); ok {
		t.Fatal("Get before the owner stored anything should miss")
	}
	backing.Put(key, []byte(`{"report":1}`))
	if body, ok := p.Get(key); !ok || string(body) != `{"report":1}` {
		t.Fatalf("Get after owner stored = %q, %v", body, ok)
	}
	if puts != 0 {
		t.Fatalf("Peer issued %d remote writes, want 0 (read-only protocol)", puts)
	}

	// A dead peer is a miss, not an error.
	srv.Close()
	if _, ok := p.Get(key); ok {
		t.Fatal("Get from dead peer should miss")
	}
}

// TestPeerRejectsNonJSON: a peer answering 200 with a body that is not JSON
// is a failed fill. It misses, counts as a peer error, and Tiered does not
// backfill it into the local tier.
func TestPeerRejectsNonJSON(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		t.Cleanup(obs.Disable)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("not json"))
	}))
	defer srv.Close()

	p := NewPeer(srv.URL)
	key := k("assignment1", "deadbeef", "src")
	before := obs.StorePeerErrorsTotal.Value()
	if body, ok := p.Get(key); ok {
		t.Fatalf("non-JSON peer body served: %q", body)
	}
	if got := obs.StorePeerErrorsTotal.Value() - before; got != 1 {
		t.Fatalf("peer errors rose by %d, want 1", got)
	}
	local := NewMemory(8)
	if _, ok := (&Tiered{Local: local, Fallback: p}).Get(key); ok {
		t.Fatal("Tiered served a non-JSON fill")
	}
	if local.Len() != 0 {
		t.Fatal("Tiered backfilled a non-JSON fill")
	}
}

// TestMemoryConcurrent hammers one Memory from many goroutines; run with
// -race this pins the locking.
func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := k("a", "v", fmt.Sprintf("%d-%d", g, i%40))
				m.Put(key, []byte{byte(i)})
				m.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if m.Len() > 32 {
		t.Fatalf("Len = %d exceeds cap", m.Len())
	}
}
