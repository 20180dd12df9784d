// Command loadgen is a closed-loop load generator for the grading service:
// each of -clients workers keeps exactly one request in flight, so measured
// latency reflects service time plus queueing, not coordinated omission.
//
// The run has two phases over the same submission set (distinct synthesized
// variants of -assignment):
//
//	cold — every submission is new, so every request takes the full grading
//	       path (parse → EPDG → Algorithm 1/2 → constraints);
//	hot  — the same submissions are resubmitted and served from the result
//	       cache, the dominant MOOC resubmission pattern.
//
// Both phases report p50/p95/p99 latency and throughput; the summary JSON
// (written to -out) records the cold:hot speedup, the number the result
// cache exists to deliver.
//
// Usage:
//
//	loadgen -addr localhost:8080
//	loadgen -targets host1:8080,host2:8080     # round-robin over endpoints
//	loadgen -clients 8 -subs 64 -rounds 4 -out BENCH_server.json
//	loadgen                                    # no -addr: spawns an in-process server
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semfeed/internal/assignments"
	"semfeed/internal/obs"
	"semfeed/internal/server"
)

// classStats is one response class's share of a phase: its request count and
// latency percentiles. Splitting by outcome keeps a shedding or erroring run
// from polluting the success latency distribution (a 429 returns in
// microseconds and would flatter every percentile it is folded into).
type classStats struct {
	Count  int     `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
}

type phaseStats struct {
	Requests int `json:"requests"`
	// Errors counts hard failures: network errors, decode failures, 4xx
	// (other than 429) and 5xx. Sheds (429) are counted separately — load
	// shedding is the admission queue working as designed, not a failure.
	Errors   int     `json:"errors"`
	Sheds    int     `json:"sheds"`
	CacheHit int     `json:"cache_hits"`
	WallS    float64 `json:"wall_seconds"`
	RPS      float64 `json:"rps"`
	// GoodputRPS is successful (2xx) responses per second.
	GoodputRPS float64 `json:"goodput_rps"`
	// Top-level percentiles cover 2xx responses only.
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	// ByStatus breaks the phase down per response class ("2xx", "429",
	// "4xx", "5xx", "network") with per-class latency percentiles.
	ByStatus map[string]classStats `json:"by_status,omitempty"`
}

type benchOut struct {
	Assignment string     `json:"assignment"`
	Clients    int        `json:"clients"`
	Subs       int        `json:"submissions"`
	Rounds     int        `json:"rounds"`
	Cold       phaseStats `json:"cold"`
	Hot        phaseStats `json:"hot"`
	Speedup    float64    `json:"hot_speedup_p50"`
	// CPUs is runtime.NumCPU() on the measuring machine: the in-process
	// server and the closed-loop clients share these cores.
	CPUs int `json:"cpus,omitempty"`
}

func main() {
	var (
		addr       = flag.String("addr", "", "server address (host:port); empty spawns an in-process server")
		targets    = flag.String("targets", "", "comma-separated server endpoints to round-robin over (overrides -addr; host:port or full URLs)")
		assignment = flag.String("assignment", "assignment1", "assignment ID to grade against")
		clients    = flag.Int("clients", 8, "concurrent closed-loop clients")
		subs       = flag.Int("subs", 64, "distinct synthesized submissions")
		rounds     = flag.Int("rounds", 3, "hot-phase resubmission rounds")
		out        = flag.String("out", "", "write the JSON summary to this file as well as stdout")
		version    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("loadgen"))
		return
	}

	a := assignments.Get(*assignment)
	if a == nil {
		fmt.Fprintf(os.Stderr, "loadgen: unknown assignment %q\n", *assignment)
		os.Exit(2)
	}

	var urls []string
	switch {
	case *targets != "":
		for _, tgt := range strings.Split(*targets, ",") {
			if tgt = strings.TrimSpace(tgt); tgt != "" {
				urls = append(urls, gradeURL(tgt))
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "loadgen: -targets parsed to nothing")
			os.Exit(2)
		}
	case *addr != "":
		urls = []string{gradeURL(*addr)}
	default:
		reg := server.NewRegistry("", nil)
		reg.AddBuiltin(a.ID, a.Spec)
		if err := reg.Load(); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		srv := server.New(server.Config{Registry: reg})
		if _, err := srv.Start("127.0.0.1:0"); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		urls = []string{gradeURL(srv.Addr())}
		fmt.Fprintf(os.Stderr, "loadgen: in-process server on %s\n", srv.Addr())
	}

	// Distinct variants from the assignment's synthesis space, so the cold
	// phase cannot accidentally hit the cache.
	sources := make([]string, 0, *subs)
	for _, k := range a.Synth.Sample(*subs) {
		sources = append(sources, a.Synth.Render(k))
	}

	res := benchOut{Assignment: a.ID, Clients: *clients, Subs: len(sources), Rounds: *rounds, CPUs: runtime.NumCPU()}
	client := newClient(*clients)
	res.Cold = runPhase(client, urls, a.ID, sources, *clients, 1)
	res.Hot = runPhase(client, urls, a.ID, sources, *clients, *rounds)
	if res.Hot.P50MS > 0 {
		res.Speedup = res.Cold.P50MS / res.Hot.P50MS
	}

	fmt.Fprintf(os.Stderr, "cold: %d reqs  p50 %.2fms  p95 %.2fms  p99 %.2fms  %.0f rps (%.0f goodput)  %d shed  %d errors\n",
		res.Cold.Requests, res.Cold.P50MS, res.Cold.P95MS, res.Cold.P99MS, res.Cold.RPS, res.Cold.GoodputRPS, res.Cold.Sheds, res.Cold.Errors)
	fmt.Fprintf(os.Stderr, "hot:  %d reqs  p50 %.2fms  p95 %.2fms  p99 %.2fms  %.0f rps (%.0f goodput)  %d shed  %d errors  (%d/%d cached)\n",
		res.Hot.Requests, res.Hot.P50MS, res.Hot.P95MS, res.Hot.P99MS, res.Hot.RPS, res.Hot.GoodputRPS, res.Hot.Sheds, res.Hot.Errors, res.Hot.CacheHit, res.Hot.Requests)
	fmt.Fprintf(os.Stderr, "hot p50 speedup: %.1fx\n", res.Speedup)

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
	}
	// Sheds (429) are deliberately not fatal: a loadgen run hot enough to
	// trip admission control is still a valid measurement.
	if res.Cold.Errors+res.Hot.Errors > 0 {
		os.Exit(1)
	}
}

// gradeURL normalizes a target (host:port or URL) to its /v1/grade endpoint.
func gradeURL(target string) string {
	if !strings.Contains(target, "://") {
		target = "http://" + target
	}
	return strings.TrimSuffix(target, "/") + "/v1/grade"
}

// newClient builds the shared HTTP client: one keep-alive connection per
// closed-loop client; the default MaxIdleConnsPerHost (2) would make most
// measurements pay connection setup instead of service time.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		},
	}
}

// runPhase pushes rounds×len(sources) requests through the closed loop,
// round-robining over urls, and aggregates latency.
func runPhase(client *http.Client, urls []string, assignment string, sources []string, clients, rounds int) phaseStats {
	// Request bodies are marshaled once up front so the measured latency is
	// the request, not client-side encoding.
	bodies := make([][]byte, len(sources))
	for i, src := range sources {
		bodies[i], _ = json.Marshal(server.GradeRequest{Assignment: assignment, Source: src})
	}
	jobs := make(chan []byte)
	var (
		mu      sync.Mutex
		byClass = map[string][]time.Duration{}
		stats   phaseStats
		rr      atomic.Uint64 // round-robin cursor over urls
	)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				url := urls[rr.Add(1)%uint64(len(urls))]
				// Mint the request ID client-side: the server adopts a valid
				// X-Request-ID, so a failed request is directly greppable in
				// the server's structured log and /v1/trace/{id}.
				rid := obs.NewRequestID()
				req, reqErr := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
				var resp *http.Response
				var err error
				t0 := time.Now()
				if reqErr != nil {
					err = reqErr
				} else {
					req.Header.Set("Content-Type", "application/json")
					req.Header.Set("X-Request-ID", rid)
					resp, err = client.Do(req)
				}
				elapsed := time.Since(t0)
				class := "network"
				cached := false
				if err == nil {
					var gr server.GradeResponse
					decErr := json.NewDecoder(resp.Body).Decode(&gr)
					resp.Body.Close()
					switch {
					case resp.StatusCode == http.StatusTooManyRequests:
						class = "429"
					case resp.StatusCode >= 500:
						class = "5xx"
					case resp.StatusCode >= 400:
						class = "4xx"
					case decErr != nil:
						class = "network"
					default:
						class = "2xx"
						cached = gr.Cached
					}
				}
				if class != "2xx" && class != "429" {
					if err != nil {
						fmt.Fprintf(os.Stderr, "loadgen: request failed request_id=%s error=%v\n", rid, err)
					} else {
						fmt.Fprintf(os.Stderr, "loadgen: request failed request_id=%s status=%d\n", rid, resp.StatusCode)
					}
				}
				mu.Lock()
				stats.Requests++
				byClass[class] = append(byClass[class], elapsed)
				switch class {
				case "2xx":
					if cached {
						stats.CacheHit++
					}
				case "429":
					stats.Sheds++
				default:
					stats.Errors++
				}
				mu.Unlock()
			}
		}()
	}

	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, body := range bodies {
			jobs <- body
		}
	}
	close(jobs)
	wg.Wait()
	stats.WallS = time.Since(t0).Seconds()

	stats.ByStatus = map[string]classStats{}
	for class, lats := range byClass {
		stats.ByStatus[class] = summarize(lats)
	}
	if ok := stats.ByStatus["2xx"]; ok.Count > 0 {
		stats.P50MS, stats.P95MS, stats.P99MS, stats.MeanMS = ok.P50MS, ok.P95MS, ok.P99MS, ok.MeanMS
	}
	if stats.WallS > 0 {
		stats.RPS = float64(stats.Requests) / stats.WallS
		stats.GoodputRPS = float64(stats.ByStatus["2xx"].Count) / stats.WallS
	}
	return stats
}

// summarize sorts one class's latencies and extracts count + percentiles.
func summarize(lats []time.Duration) classStats {
	cs := classStats{Count: len(lats)}
	if cs.Count == 0 {
		return cs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(cs.Count-1))
		return float64(lats[idx].Microseconds()) / 1000
	}
	cs.P50MS = pct(0.50)
	cs.P95MS = pct(0.95)
	cs.P99MS = pct(0.99)
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	cs.MeanMS = float64(sum.Microseconds()) / 1000 / float64(cs.Count)
	return cs
}
