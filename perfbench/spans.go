package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/store"
)

// Span kinds recorded on a traced run. Each is taken around a call into a
// public function of the program, from the benchmark's own code.
const (
	spanClient   = "client"    // loadClient.post: the client round trip
	spanHandler  = "handler"   // Server.Handler() behind the benchmark's listener
	spanStoreGet = "store.get" // store.Store.Get behind Config.Store
	spanStorePut = "store.put" // store.Store.Put behind Config.Store
	spanSweep    = "sweep"     // one Table I sweep
	spanRow      = "row"       // bench.MeasureRowOpts for one assignment
)

// span is one recorded call. Spans of one request share req, the index
// carried in its X-Request-ID; store spans carry the source hash instead and
// are joined to their request afterwards (see join).
type span struct {
	kind  string
	req   int64  // request index, or -1
	hash  string // store spans: store.Key.SourceHash
	label string // free-form: assignment ID for rows, "hit"/"miss" for gets
	iv    interval
}

// spanLog keeps a run's spans in memory; when the run ends they are
// summarized on stderr and, with --spans, written out one per line.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// now is the monotonic offset from the log's epoch in nanoseconds.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// requestIDPrefix starts every X-Request-ID the benchmark sends; the rest is
// the request index, which is what joins a handler span to its client span.
const requestIDPrefix = "pb-"

func requestID(i int64) string { return requestIDPrefix + strconv.FormatInt(i, 10) }

func parseRequestID(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, requestIDPrefix), 10, 64)
	if err != nil || !strings.HasPrefix(id, requestIDPrefix) {
		return -1
	}
	return n
}

// handler wraps the program's handler with a request span.
func (l *spanLog) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := l.now()
		h.ServeHTTP(w, r)
		l.add(span{kind: spanHandler, req: parseRequestID(r.Header.Get("X-Request-ID")), iv: interval{start, l.now()}})
	})
}

// timingStore is the store.Store passed as Config.Store on a traced run:
// store.NewMemory behind get/put spans, while recording is on. Evictions are
// counted from the occupancy change around each Put, under a lock so that
// concurrent Puts cannot blur each other's count.
type timingStore struct {
	inner     *store.Memory
	log       *spanLog
	recording atomic.Bool

	putMu     sync.Mutex
	evictions int64
}

func (t *timingStore) Get(k store.Key) ([]byte, bool) {
	if !t.recording.Load() {
		return t.inner.Get(k)
	}
	start := t.log.now()
	body, ok := t.inner.Get(k)
	label := "miss"
	if ok {
		label = "hit"
	}
	t.log.add(span{kind: spanStoreGet, req: -1, hash: k.SourceHash, label: label, iv: interval{start, t.log.now()}})
	return body, ok
}

func (t *timingStore) Put(k store.Key, body []byte) {
	if !t.recording.Load() {
		t.inner.Put(k, body)
		return
	}
	t.putMu.Lock()
	defer t.putMu.Unlock()
	before := t.inner.Len()
	start := t.log.now()
	t.inner.Put(k, body)
	end := t.log.now()
	// Puts follow a Get miss on the same key, so each adds one entry unless
	// it evicted another.
	t.evictions += int64(before + 1 - t.inner.Len())
	t.log.add(span{kind: spanStorePut, req: -1, hash: k.SourceHash, iv: interval{start, end}})
}

func (t *timingStore) evicted() int64 {
	t.putMu.Lock()
	defer t.putMu.Unlock()
	return t.evictions
}

func (t *timingStore) Len() int { return t.inner.Len() }

// joined is a traced serve run's spans after joining: per request, its
// client span, its handler span and the store spans inside that handler.
type joined struct {
	client  map[int64]interval
	handler map[int64]interval
	store   map[int64][]int // request → indexes of its store spans
	orphans int             // store spans that matched no request
}

// join links the spans of each request. Client and handler spans share the
// request index; a store span joins the request whose source has its hash
// and whose handler span contains it (resubmitted sources repeat, so the
// hash alone is ambiguous).
func (l *spanLog) join(hashOf func(req int64) string) *joined {
	l.mu.Lock()
	defer l.mu.Unlock()
	j := &joined{client: map[int64]interval{}, handler: map[int64]interval{}, store: map[int64][]int{}}
	byHash := map[string][]int64{}
	for _, s := range l.spans {
		switch s.kind {
		case spanClient:
			j.client[s.req] = s.iv
		case spanHandler:
			j.handler[s.req] = s.iv
			h := hashOf(s.req)
			byHash[h] = append(byHash[h], s.req)
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		if s.kind != spanStoreGet && s.kind != spanStorePut {
			continue
		}
		found := false
		for _, req := range byHash[s.hash] {
			if h := j.handler[req]; h.start <= s.iv.start && s.iv.end <= h.end {
				j.store[req] = append(j.store[req], i)
				s.req = req
				found = true
				break
			}
		}
		if !found {
			j.orphans++
		}
	}
	return j
}

// writeSummary prints, per span kind, the count and the median duration and
// self time in microseconds: the run's spans, written out when it ends.
func (l *spanLog) writeSummary(w io.Writer, selfOf map[string][]float64) {
	durs := map[string][]float64{}
	for _, s := range l.spans {
		durs[s.kind] = append(durs[s.kind], float64(s.iv.end-s.iv.start)/1e3)
	}
	kinds := make([]string, 0, len(durs))
	for k := range durs {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(w, "%-10s %8s %12s %12s\n", "span", "count", "p50_us", "self_p50_us")
	for _, k := range kinds {
		self := "-"
		if xs := selfOf[k]; len(xs) > 0 {
			self = fmt.Sprintf("%.1f", median(xs))
		}
		fmt.Fprintf(w, "%-10s %8d %12.1f %12s\n", k, len(durs[k]), median(durs[k]), self)
	}
}

// spanRecord is one span as --spans writes it: times are nanoseconds from
// the run's first span, and request_id is the X-Request-ID of the request
// the span belongs to (store spans carry it once joined).
type spanRecord struct {
	Kind      string `json:"kind"`
	RequestID string `json:"request_id,omitempty"`
	Label     string `json:"label,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
}

// writeFile writes every span to path as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		rec := spanRecord{Kind: s.kind, Label: s.label, StartNS: s.iv.start, EndNS: s.iv.end}
		if s.req >= 0 {
			rec.RequestID = requestID(s.req)
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
