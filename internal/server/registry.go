package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/core"
	"semfeed/internal/kb"
	"semfeed/internal/obs"
)

// Entry is one assignment the service can grade against.
type Entry struct {
	ID string
	// Version identifies the KB content the spec was compiled from (a
	// content hash for file-backed entries). It is part of the result-cache
	// key, so a hot-reloaded definition never serves stale cached reports.
	Version string
	Spec    *core.AssignmentSpec
	// Source is "builtin" or the definition file path.
	Source string
}

// Registry serves assignment specs keyed by ID and hot-reloads definitions
// from a directory. The serving path reads one atomic.Pointer load per
// request; reloads compile a complete replacement snapshot off to the side
// and swap it in, so in-flight grades keep the spec they started with and
// are never blocked by a reload.
type Registry struct {
	dir    string
	logger *slog.Logger

	snap atomic.Pointer[map[string]*Entry]

	mu       sync.Mutex
	builtins map[string]*Entry

	stop    chan struct{}
	stopped chan struct{}
}

// NewRegistry returns a registry over dir (may be empty for builtin-only
// serving). logger receives one line per reload and per rejected
// definition; nil falls back to the process-wide obs.Logger().
func NewRegistry(dir string, logger *slog.Logger) *Registry {
	r := &Registry{dir: dir, logger: logger, builtins: map[string]*Entry{}}
	empty := map[string]*Entry{}
	r.snap.Store(&empty)
	return r
}

func (r *Registry) log() *slog.Logger {
	if r.logger != nil {
		return r.logger
	}
	return obs.Logger()
}

// AddBuiltin registers a compiled-in assignment. Builtins are part of every
// snapshot; a definition file with the same ID overrides them (and logs).
func (r *Registry) AddBuiltin(id string, spec *core.AssignmentSpec) {
	r.mu.Lock()
	r.builtins[id] = &Entry{ID: id, Version: "builtin", Spec: spec, Source: "builtin"}
	r.mu.Unlock()
}

// Load scans the KB directory (if any) and publishes the initial snapshot.
// A missing or unreadable directory is an error; individually malformed
// definition files are logged, counted and skipped so one bad upload cannot
// take every other assignment offline.
func (r *Registry) Load() error {
	snap, err := r.build(*r.snap.Load())
	if err != nil {
		return err
	}
	r.publish(snap)
	return nil
}

// Start launches the poll loop; Stop ends it.
func (r *Registry) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	r.stop = make(chan struct{})
	r.stopped = make(chan struct{})
	go func() {
		defer close(r.stopped)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-tick.C:
				snap, err := r.build(*r.snap.Load())
				if err != nil {
					r.log().Warn("kb_reload_failed", "error", err)
					obs.ServerKBErrorsTotal.Inc()
					continue
				}
				r.publish(snap)
			}
		}
	}()
}

// Stop terminates the poll loop and waits for it to exit.
func (r *Registry) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.stopped
	r.stop = nil
}

// Get returns the current entry for id, or nil. The returned entry is
// immutable; callers may hold it across a reload.
func (r *Registry) Get(id string) *Entry { return (*r.snap.Load())[id] }

// Entries returns the current snapshot's entries sorted by ID.
func (r *Registry) Entries() []*Entry {
	snap := *r.snap.Load()
	out := make([]*Entry, 0, len(snap))
	for _, e := range snap {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of served assignments.
func (r *Registry) Len() int { return len(*r.snap.Load()) }

// build compiles the next snapshot: builtins overlaid with every *.json
// definition in the directory. Entries whose file content is unchanged are
// reused from prev, so a quiet poll tick costs one ReadDir plus one read and
// hash per file — no pattern compilation.
func (r *Registry) build(prev map[string]*Entry) (map[string]*Entry, error) {
	next := map[string]*Entry{}
	r.mu.Lock()
	for id, e := range r.builtins {
		next[id] = e
	}
	r.mu.Unlock()

	if r.dir == "" {
		return next, nil
	}
	files, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, fmt.Errorf("kb dir %s: %w", r.dir, err)
	}
	byVersion := map[string]*Entry{}
	for _, e := range prev {
		if e.Source != "builtin" {
			byVersion[e.Source+"\x00"+e.Version] = e
		}
	}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		path := filepath.Join(r.dir, f.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			r.reject(path, err)
			continue
		}
		sum := sha256.Sum256(data)
		version := hex.EncodeToString(sum[:6])
		if e, ok := byVersion[path+"\x00"+version]; ok {
			next[e.ID] = e
			continue
		}
		def, err := kb.ReadAssignmentDef(strings.NewReader(string(data)))
		if err != nil {
			r.reject(path, err)
			continue
		}
		spec, errs := def.Compile()
		if len(errs) > 0 {
			r.reject(path, errors.Join(errs...))
			continue
		}
		if old, clash := next[def.ID]; clash && old.Source != path {
			r.log().Info("kb_override", "path", path, "overrides", old.Source, "assignment", def.ID)
		}
		next[def.ID] = &Entry{ID: def.ID, Version: version, Spec: spec, Source: path}
	}
	return next, nil
}

// reject logs and counts one definition file left out of the snapshot.
func (r *Registry) reject(path string, err error) {
	r.log().Warn("kb_reject", "path", path, "error", err)
	obs.ServerKBErrorsTotal.Inc()
}

// publish swaps the snapshot in if it differs from the current one.
func (r *Registry) publish(next map[string]*Entry) {
	cur := *r.snap.Load()
	if sameSnapshot(cur, next) {
		return
	}
	r.snap.Store(&next)
	obs.ServerKBReloadsTotal.Inc()
	obs.ServerKBAssignments.Set(int64(len(next)))
	r.log().Info("kb_reload", "assignments", len(next))
}

func sameSnapshot(a, b map[string]*Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ea := range a {
		eb, ok := b[id]
		if !ok || ea.Version != eb.Version || ea.Source != eb.Source {
			return false
		}
	}
	return true
}
