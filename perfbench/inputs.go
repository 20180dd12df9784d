package main

import (
	"encoding/json"
	"fmt"
	"strconv"

	"semfeed/internal/assignments"
)

// Inputs are pure functions of the seed and a request index, so concurrent
// clients draw them without shared state and the same seed always yields
// the same request stream.
const (
	// coldVariants is the number of synthesized base variants per
	// assignment on serve-cold; every request appends a unique trailing
	// comment to one of them.
	coldVariants = 64
	// poolPerAssignment sizes serve-resubmit's pool: 12 × 50 = 600
	// entries, well inside the 4,096-entry store with the warm-up entries.
	poolPerAssignment = 50
	// warmupPerAssignment is the number of warm-up grades per assignment,
	// issued before the timed phase on both serve workloads.
	warmupPerAssignment = 2
	// storeEntries is semfeedd's default memory-store capacity.
	storeEntries = 4096
)

// mix is SplitMix64 over (seed, i, stream): a stateless, well-spread index
// hash for drawing request i's input.
func mix(seed int64, i int64, stream uint64) uint64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i) ^ stream<<56
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Streams keep the draws of different workloads independent.
const (
	streamCold     = 1
	streamResubmit = 2
)

// submission is one source to send, with the JSON request body carrying it.
type submission struct {
	assignment int // index into assignments.All()
	variant    int // base-variant index (serve-cold) or pool index (resubmit)
	source     string
	body       []byte
}

// jsonString returns s as a JSON string literal without the quotes.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // marshalling a string cannot fail
	return b[1 : len(b)-1]
}

// gradeBody renders a POST /v1/grade body the way a client would.
func gradeBody(assignmentID, source string) []byte {
	b := make([]byte, 0, len(source)+64)
	b = append(b, `{"assignment":"`...)
	b = append(b, jsonString(assignmentID)...)
	b = append(b, `","source":"`...)
	b = append(b, jsonString(source)...)
	return append(b, `"}`...)
}

// coldInputs is serve-cold's request stream: request i grades assignment
// i mod 12 (so every assignment gets the same share), one of its seeded
// base variants, made textually unique by a trailing comment naming the
// seed and i. No two requests share a source, so the store never hits.
type coldInputs struct {
	seed     int64
	all      []*assignments.Assignment
	ks       [][]int64  // per assignment: submission-space index of each variant
	variants [][]string // per assignment: base sources
	prefixes [][][]byte // per assignment and variant: body up to the unique suffix
}

func newColdInputs(seed int64) *coldInputs {
	c := &coldInputs{seed: seed, all: assignments.All()}
	for _, a := range c.all {
		ks := a.Synth.SampleSeed(coldVariants, seed)
		srcs := make([]string, len(ks))
		prefixes := make([][]byte, len(ks))
		for j, k := range ks {
			srcs[j] = a.Synth.Render(k)
			body := gradeBody(a.ID, srcs[j])
			prefixes[j] = body[: len(body)-2 : len(body)-2] // drop the closing `"}`
		}
		c.ks = append(c.ks, ks)
		c.variants = append(c.variants, srcs)
		c.prefixes = append(c.prefixes, prefixes)
	}
	return c
}

func (c *coldInputs) suffix(i int64) string {
	return "\n// perfbench serve-cold seed=" + strconv.FormatInt(c.seed, 10) + " request=" + strconv.FormatInt(i, 10) + "\n"
}

// request returns request i of the stream.
func (c *coldInputs) request(i int64) submission {
	ai := int(i % int64(len(c.all)))
	vi := int(mix(c.seed, i, streamCold) % uint64(len(c.variants[ai])))
	suffix := c.suffix(i)
	p := c.prefixes[ai][vi]
	body := make([]byte, 0, len(p)+len(suffix)+8)
	body = append(body, p...)
	body = append(body, jsonString(suffix)...)
	body = append(body, `"}`...)
	return submission{assignment: ai, variant: vi, source: c.variants[ai][vi] + suffix, body: body}
}

// variantKey names a base variant for the pinned outputs.
func (c *coldInputs) variantKey(ai, vi int) string {
	return fmt.Sprintf("%s/%d", c.all[ai].ID, c.ks[ai][vi])
}

// resubmitPool is serve-resubmit's pool: poolPerAssignment seeded variants
// of every assignment, each with a trailing pool comment so entries stay
// distinct even where two variants render alike. Set-up grades every entry
// once; the timed phase then draws request i's entry by seed, so every
// request is a store hit.
type resubmitPool struct {
	seed    int64
	entries []submission
}

func newResubmitPool(seed int64) *resubmitPool {
	p := &resubmitPool{seed: seed}
	all := assignments.All()
	for ai, a := range all {
		for j, k := range a.Synth.SampleSeed(poolPerAssignment, seed) {
			src := a.Synth.Render(k) + fmt.Sprintf("\n// perfbench serve-resubmit pool=%d\n", j)
			p.entries = append(p.entries, submission{
				assignment: ai, variant: len(p.entries), source: src, body: gradeBody(a.ID, src),
			})
		}
	}
	return p
}

// request returns request i of the stream.
func (p *resubmitPool) request(i int64) submission {
	return p.entries[mix(p.seed, i, streamResubmit)%uint64(len(p.entries))]
}

// warmupInputs are graded before every serve workload's timed phase: each
// assignment's reference, with a warm-up comment so none of them can
// collide with a timed request's source.
func warmupInputs() []submission {
	var out []submission
	for ai, a := range assignments.All() {
		for j := 0; j < warmupPerAssignment; j++ {
			src := a.Reference() + fmt.Sprintf("\n// perfbench warm-up %d\n", j)
			out = append(out, submission{assignment: ai, source: src, body: gradeBody(a.ID, src)})
		}
	}
	return out
}
