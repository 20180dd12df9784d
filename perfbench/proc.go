package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB). Set-up probes are child processes and do not count.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample reads the Go runtime counters the runtime layer reports.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU                    float64 // seconds
	sched                    *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[3].Value.Float64Histogram()
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		sched: &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: h.Buckets,
		},
	}
}

// runtimeDelta is the runtime's work between two samples.
type runtimeDelta struct {
	allocBytes, allocObjects uint64
	gcCPU                    float64
	schedCounts              []uint64
	schedBuckets             []float64
}

func (b runtimeSample) sub(a runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes:   b.allocBytes - a.allocBytes,
		allocObjects: b.allocObjects - a.allocObjects,
		gcCPU:        b.gcCPU - a.gcCPU,
		schedBuckets: b.sched.Buckets,
		schedCounts:  make([]uint64, len(b.sched.Counts)),
	}
	for i := range d.schedCounts {
		d.schedCounts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	return d
}

func (d *runtimeDelta) add(o runtimeDelta) {
	d.allocBytes += o.allocBytes
	d.allocObjects += o.allocObjects
	d.gcCPU += o.gcCPU
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(o.schedCounts))
		d.schedBuckets = o.schedBuckets
	}
	for i, c := range o.schedCounts {
		d.schedCounts[i] += c
	}
}

// schedWaitP99 is the 99th percentile of goroutine scheduling latency (time
// runnable before running), as the upper bound of the histogram bucket that
// holds it, in seconds.
func (d *runtimeDelta) schedWaitP99() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := (total*99 + 99) / 100
	var seen uint64
	for i, c := range d.schedCounts {
		seen += c
		if seen >= rank {
			if hi := d.schedBuckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return d.schedBuckets[i] // the open top bucket: its lower bound
		}
	}
	return 0
}

// children tracks the set-up probes a run has started, so every exit path,
// the watchdog's included, kills and reaps them.
type children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
}

func newChildren() *children { return &children{live: map[*exec.Cmd]bool{}} }

func (c *children) start(cmd *exec.Cmd) error {
	// The kernel kills the probe if this process dies first (a panic or
	// SIGKILL), so not even a crash leaves it running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	c.live[cmd] = true
	return nil
}

// wait reaps cmd, killing it first if it has not exited within limit.
func (c *children) wait(cmd *exec.Cmd, limit time.Duration) error {
	t := time.AfterFunc(limit, func() { _ = cmd.Process.Kill() })
	err := cmd.Wait()
	t.Stop()
	c.mu.Lock()
	delete(c.live, cmd)
	c.mu.Unlock()
	return err
}

// killAll kills every live probe; the watchdog calls it before exiting.
func (c *children) killAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for cmd := range c.live {
		_ = cmd.Process.Kill()
	}
}

// probeEnv marks a process started as a set-up probe: it sets up the
// workload, reports readiness on stdout, tears down and exits.
const probeEnv = "PERFBENCH_SETUP_PROBE"

const (
	// setupProbes is how many fresh processes measure setup_s per run; the
	// median is reported.
	setupProbes = 15
	// probeLimit bounds one probe from start to exit.
	probeLimit = 60 * time.Second
)

// measureSetup starts setupProbes fresh processes of this executable, one
// after another, and returns each one's wall time from process start until
// its workload could issue the first timed operation: package init (where
// the built-in KB compiles) and the workload's set-up.
func measureSetup(kids *children, workload string, seed int64, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := kids.start(cmd); err != nil {
			return nil, fmt.Errorf("start set-up probe: %w", err)
		}
		kill := time.AfterFunc(probeLimit, func() { _ = cmd.Process.Kill() })
		line, readErr := bufio.NewReader(pipe).ReadString('\n')
		d := time.Since(t0)
		kill.Stop()
		waitErr := kids.wait(cmd, probeLimit)
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up probe %d did not report ready: %v", i, errors.Join(readErr, waitErr))
		}
		if waitErr != nil {
			return nil, fmt.Errorf("set-up probe %d: %w", i, waitErr)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}
