package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestDiskPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("assignment1", "v1", "int x;")
	d.Put(key, []byte(`{"score":1}`))
	if body, ok := d.Get(key); !ok || string(body) != `{"score":1}` {
		t.Fatalf("Get = %q, %v", body, ok)
	}

	// Reopen: the entry must survive the process boundary.
	d2, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if body, ok := d2.Get(key); !ok || string(body) != `{"score":1}` {
		t.Fatalf("Get after reopen = %q, %v", body, ok)
	}
	if d2.Len() != 1 {
		t.Fatalf("Len after reopen = %d, want 1", d2.Len())
	}
}

func TestDiskSizeCapEvictsOldest(t *testing.T) {
	dir := t.TempDir()
	// Cap fits three 100-byte bodies (a JSON string of 98 x's).
	d, err := NewDisk(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`"` + strings.Repeat("x", 98) + `"`)
	for i := 0; i < 5; i++ {
		d.Put(NewKey("a", "v", fmt.Sprintf("s%d", i)), body)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if d.Bytes() > 300 {
		t.Fatalf("Bytes = %d exceeds cap", d.Bytes())
	}
	// The oldest two puts must be gone, the newest three present.
	for i := 0; i < 2; i++ {
		if _, ok := d.Get(NewKey("a", "v", fmt.Sprintf("s%d", i))); ok {
			t.Fatalf("entry s%d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := d.Get(NewKey("a", "v", fmt.Sprintf("s%d", i))); !ok {
			t.Fatalf("entry s%d missing", i)
		}
	}
}

func TestDiskCrashArtifactsCleaned(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("a", "v", "src")
	d.Put(key, []byte(`"good"`))

	// Simulate a crash mid-write: a temp file next to a real entry, plus a
	// stray file whose name is not a key.
	entryDir := filepath.Dir(d.pathFor(key))
	if err := os.WriteFile(filepath.Join(entryDir, tmpPrefix+"123"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "garbage.txt"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (temp and stray files must not index)", d2.Len())
	}
	if _, err := os.Stat(filepath.Join(entryDir, tmpPrefix+"123")); !os.IsNotExist(err) {
		t.Fatal("temp file survived the reopen sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "garbage.txt")); !os.IsNotExist(err) {
		t.Fatal("stray file survived the reopen sweep")
	}
	if body, ok := d2.Get(key); !ok || string(body) != `"good"` {
		t.Fatalf("real entry lost: %q, %v", body, ok)
	}
}

// TestDiskValidateDropsStaleKBVersions pins the restart-after-KB-edit story:
// entries whose version the registry no longer serves are unlinked, matching
// ones survive.
func TestDiskValidateDropsStaleKBVersions(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewKey("assignment1", "v2", "a")
	stale := NewKey("assignment1", "v1", "b")
	gone := NewKey("removed-assignment", "v9", "c")
	for _, e := range []struct {
		k Key
		b string
	}{{fresh, `"fresh"`}, {stale, `"stale"`}, {gone, `"gone"`}} {
		d.Put(e.k, []byte(e.b))
	}

	current := map[string]string{"assignment1": "v2"}
	dropped := d.Validate(func(a, v string) bool { return current[a] == v })
	if dropped != 2 {
		t.Fatalf("Validate dropped %d, want 2", dropped)
	}
	if _, ok := d.Get(stale); ok {
		t.Fatal("stale KB version served after Validate")
	}
	if _, ok := d.Get(gone); ok {
		t.Fatal("removed assignment served after Validate")
	}
	if body, ok := d.Get(fresh); !ok || string(body) != `"fresh"` {
		t.Fatalf("current entry lost: %q, %v", body, ok)
	}

	// The stale version's directory tree must be pruned from disk too.
	if _, err := os.Stat(filepath.Dir(d.pathFor(stale))); !os.IsNotExist(err) {
		t.Fatal("stale version directory not pruned")
	}
}

func TestDiskConcurrent(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := NewKey("a", "v", fmt.Sprintf("%d-%d", g, i%10))
				d.Put(key, []byte(strconv.Itoa(i)))
				d.Get(key)
			}
		}(g)
	}
	wg.Wait()
}

// TestDiskDropsCorruptEntry: stored bodies are served without parsing, so a
// file damaged outside the store (here cut short) must miss and leave the
// index and the disk, never reach a reply.
func TestDiskDropsCorruptEntry(t *testing.T) {
	d, err := NewDisk(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	key := NewKey("a", "v", "src")
	d.Put(key, []byte(`{"truncated":false}`))
	if err := os.WriteFile(d.pathFor(key), []byte(`{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	if body, ok := d.Get(key); ok {
		t.Fatalf("corrupt entry served: %q", body)
	}
	if d.Len() != 0 || d.Bytes() != 0 {
		t.Fatalf("corrupt entry still indexed: Len %d, Bytes %d", d.Len(), d.Bytes())
	}
	if _, err := os.Stat(d.pathFor(key)); !os.IsNotExist(err) {
		t.Fatal("corrupt entry's file survived the Get")
	}
}
