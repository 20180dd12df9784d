package pattern_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"semfeed/internal/pattern"
)

func valid() *pattern.Pattern {
	return &pattern.Pattern{
		Name: "demo",
		Vars: []string{"x"},
		Nodes: []pattern.Node{
			{ID: "u0", Type: "Assign", Exact: []string{"x = 0"}, Approx: []string{"x ="}},
			{ID: "u1", Type: "Cond", Exact: []string{"x <"}},
			{ID: "u2", Type: "Untyped", Exact: []string{"x"}},
		},
		Edges: []pattern.Edge{
			{From: "u0", To: "u1", Type: "Data"},
			{From: "u1", To: "u2", Type: "Ctrl"},
		},
		Present: "found {x}",
		Missing: "missing",
	}
}

func TestCompileValid(t *testing.T) {
	c, err := pattern.Compile(valid())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "demo" || len(c.Nodes) != 3 || len(c.Edges) != 2 {
		t.Errorf("compiled shape wrong: %v", c)
	}
	if c.NodeIndex("u1") != 1 || c.NodeIndex("zz") != -1 {
		t.Error("NodeIndex wrong")
	}
	if !c.Nodes[2].AnyType {
		t.Error("u2 should be Untyped/AnyType")
	}
	if len(c.Out(0)) != 1 || len(c.In(2)) != 1 {
		t.Error("adjacency wrong")
	}
}

func TestCompileErrors(t *testing.T) {
	mutate := []struct {
		name string
		f    func(*pattern.Pattern)
	}{
		{"no-name", func(p *pattern.Pattern) { p.Name = "" }},
		{"no-nodes", func(p *pattern.Pattern) { p.Nodes = nil }},
		{"dup-node", func(p *pattern.Pattern) { p.Nodes[1].ID = "u0" }},
		{"bad-type", func(p *pattern.Pattern) { p.Nodes[0].Type = "Bogus" }},
		{"no-exact", func(p *pattern.Pattern) { p.Nodes[0].Exact = nil }},
		{"bad-edge-from", func(p *pattern.Pattern) { p.Edges[0].From = "zz" }},
		{"bad-edge-to", func(p *pattern.Pattern) { p.Edges[0].To = "zz" }},
		{"bad-edge-type", func(p *pattern.Pattern) { p.Edges[0].Type = "Weird" }},
		{"approx-var-not-in-exact", func(p *pattern.Pattern) {
			p.Vars = []string{"x", "y"}
			p.Nodes[0].Approx = []string{"y ="}
		}},
	}
	for _, m := range mutate {
		p := valid()
		m.f(p)
		if _, err := pattern.Compile(p); err == nil {
			t.Errorf("%s: expected a compile error", m.name)
		}
	}
}

func TestCrucialNodes(t *testing.T) {
	p := valid()
	c, _ := pattern.Compile(p)
	if c.Nodes[0].Crucial() {
		t.Error("u0 has an approx form: not crucial")
	}
	if !c.Nodes[1].Crucial() {
		t.Error("u1 has no approx and no incorrect feedback: crucial")
	}
}

func TestRenderFeedback(t *testing.T) {
	gamma := map[string]string{"x": "i", "s": "a"}
	cases := map[string]string{
		"":                          "",
		"plain":                     "plain",
		"{x} is fine":               "i is fine",
		"use {x} to access {s}":     "use i to access a",
		"{unknown} stays":           "unknown stays",
		"brace { unclosed":          "brace { unclosed",
		"{x}{s}":                    "ia",
		"i % 2 == 1, where {x} ...": "i % 2 == 1, where i ...",
	}
	for tmpl, want := range cases {
		if got := pattern.RenderFeedback(tmpl, gamma); got != want {
			t.Errorf("%q: got %q, want %q", tmpl, got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	data, err := json.MarshalIndent([]*pattern.Pattern{valid()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := pattern.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name() != "demo" {
		t.Fatalf("round trip lost data: %v", got)
	}
	if got[0].Source.Present != "found {x}" {
		t.Error("feedback lost in round trip")
	}
}

func TestReadAllRejectsUnknownFields(t *testing.T) {
	in := strings.NewReader(`[{"name":"p","vars":[],"nodes":[{"id":"u0","type":"Assign","exact":["x"]}],"bogus":1}]`)
	if _, err := pattern.ReadAll(in); err == nil {
		t.Error("unknown fields should be rejected")
	}
}

func TestReadAllRejectsInvalidPattern(t *testing.T) {
	in := strings.NewReader(`[{"name":"","vars":[],"nodes":[]}]`)
	if _, err := pattern.ReadAll(in); err == nil {
		t.Error("invalid pattern should be rejected")
	}
}
