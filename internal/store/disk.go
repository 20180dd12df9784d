package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"semfeed/internal/obs"
)

// Disk is the durable tier: one content-addressed file per result at
// <dir>/<assignment>/<kb-version>/<source-hash>, size-capped with
// LRU eviction. Writes go through a temp file and an atomic rename, so a
// crash mid-Put leaves either the old state or the new file, never a torn
// one; leftover temp files are swept on startup. Because the KB version is a
// path component, a whole version's worth of stale feedback can be dropped
// in one subtree removal — Validate does exactly that against the registry
// snapshot on startup, so a restarted worker never serves feedback computed
// against an edited knowledge base.
type Disk struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	total    int64
	ll       *list.List // MRU at front; Value is *diskItem
	entries  map[string]*list.Element
}

type diskItem struct {
	key  Key
	path string
	size int64
}

const tmpPrefix = ".tmp-"

// NewDisk opens (creating if needed) a disk store rooted at dir, holding at
// most maxBytes of result bodies (<= 0 means 256 MiB). Existing entries are
// indexed by modification time, oldest first in the eviction order;
// unreadable or temporary files are removed.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	d := &Disk{dir: dir, maxBytes: maxBytes, ll: list.New(), entries: make(map[string]*list.Element)}
	if err := d.load(); err != nil {
		return nil, err
	}
	return d, nil
}

// load scans the tree and rebuilds the index. Recovery policy: temp files
// are deleted (interrupted writes), files whose path does not parse as a key
// are deleted (they can never be addressed), and mtime orders the initial
// LRU so a restarted store evicts the coldest results first.
func (d *Disk) load() error {
	type found struct {
		item  *diskItem
		mtime int64
	}
	var items []found
	err := filepath.WalkDir(d.dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			_ = os.Remove(path)
			return nil
		}
		rel, err := filepath.Rel(d.dir, path)
		if err != nil {
			return err
		}
		key, ok := ParsePath(filepath.ToSlash(rel))
		if !ok {
			_ = os.Remove(path)
			return nil
		}
		info, err := de.Info()
		if err != nil {
			_ = os.Remove(path)
			return nil
		}
		items = append(items, found{
			item:  &diskItem{key: key, path: path, size: info.Size()},
			mtime: info.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", d.dir, err)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].mtime > items[j].mtime })
	for _, f := range items { // newest first, so PushBack keeps oldest at the tail
		d.entries[f.item.key.String()] = d.ll.PushBack(f.item)
		d.total += f.item.size
	}
	d.evictLocked()
	d.publishGauges()
	return nil
}

// pathFor mirrors Key.Path on the local filesystem.
func (d *Disk) pathFor(k Key) string {
	return filepath.Join(d.dir, url.PathEscape(k.Assignment), url.PathEscape(k.KBVersion), url.PathEscape(k.SourceHash))
}

// Get reads the entry's file and promotes it in the eviction order. A file
// that vanished, fails to read or is not valid JSON (torn or overwritten
// outside the store) is dropped from the index — the store heals around
// external damage rather than erroring, and the caller regrades.
func (d *Disk) Get(k Key) ([]byte, bool) {
	d.mu.Lock()
	el, ok := d.entries[k.String()]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	it := el.Value.(*diskItem)
	d.ll.MoveToFront(el)
	d.mu.Unlock()

	body, err := os.ReadFile(it.path)
	if err != nil || !json.Valid(body) {
		d.mu.Lock()
		d.dropLocked(k.String())
		d.publishGauges()
		d.mu.Unlock()
		return nil, false
	}
	return body, true
}

// Put writes body via temp-file + rename and evicts past the size cap. A
// write error drops the entry silently (Put is best-effort; the caller holds
// the result).
func (d *Disk) Put(k Key, body []byte) {
	path := d.pathFor(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(body); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	key := k.String()
	if el, ok := d.entries[key]; ok {
		it := el.Value.(*diskItem)
		d.total += int64(len(body)) - it.size
		it.size = int64(len(body))
		d.ll.MoveToFront(el)
	} else {
		d.entries[key] = d.ll.PushFront(&diskItem{key: k, path: path, size: int64(len(body))})
		d.total += int64(len(body))
	}
	d.evictLocked()
	d.publishGauges()
}

// Len returns the number of stored entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// Bytes returns the tracked size of all stored bodies.
func (d *Disk) Bytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.total
}

// Validate drops every entry whose (assignment, KB version) the keep
// predicate rejects, returning the number removed. Call it on startup with
// the registry snapshot: entries for assignments that no longer exist, or
// whose knowledge base was edited while the worker was down, are unlinked
// before the store serves a single request.
func (d *Disk) Validate(keep func(assignment, kbVersion string) bool) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var stale []string
	for key, el := range d.entries {
		it := el.Value.(*diskItem)
		if !keep(it.key.Assignment, it.key.KBVersion) {
			stale = append(stale, key)
		}
	}
	for _, key := range stale {
		d.dropLocked(key)
		obs.StoreStaleEvictionsTotal.Inc()
	}
	d.publishGauges()
	return len(stale)
}

// evictLocked removes least-recently-used entries until the total fits.
func (d *Disk) evictLocked() {
	for d.total > d.maxBytes && d.ll.Len() > 0 {
		tail := d.ll.Back()
		d.dropLocked(tail.Value.(*diskItem).key.String())
		obs.StoreDiskEvictionsTotal.Inc()
	}
}

// dropLocked unlinks one entry from the index and the filesystem, pruning
// now-empty parent directories best-effort.
func (d *Disk) dropLocked(key string) {
	el, ok := d.entries[key]
	if !ok {
		return
	}
	it := el.Value.(*diskItem)
	d.ll.Remove(el)
	delete(d.entries, key)
	d.total -= it.size
	_ = os.Remove(it.path)
	dir := filepath.Dir(it.path)
	for dir != d.dir {
		if os.Remove(dir) != nil { // fails while non-empty, which ends the walk
			break
		}
		dir = filepath.Dir(dir)
	}
}

func (d *Disk) publishGauges() {
	obs.StoreDiskEntries.Set(int64(d.ll.Len()))
	obs.StoreDiskBytes.Set(d.total)
}
