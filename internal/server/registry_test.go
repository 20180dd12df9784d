package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
)

// TestRegistryLogsEachEventOnce loads a KB directory holding one good
// definition, one that is not JSON and one that fails to compile: the
// registry logs the reload once and each rejected file once.
func TestRegistryLogsEachEventOnce(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"good.json":    `{"id": "good", "methods": [{"name": "walk", "patterns": [{"name": "seq-even-access", "count": 1}]}]}`,
		"garbled.json": `{"id": `,
		"unknown.json": `{"id": "unknown", "methods": [{"name": "walk", "patterns": [{"name": "no-such-pattern", "count": 1}, {"name": "nor-this-one", "count": 1}]}]}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	reg := NewRegistry(dir, slog.New(slog.NewJSONHandler(&buf, nil)))
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 {
		t.Fatalf("registry serves %d assignments, want 1", reg.Len())
	}

	events := map[string][]string{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var line struct{ Msg, Path string }
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		events[line.Msg] = append(events[line.Msg], filepath.Base(line.Path))
	}
	if len(events) != 2 || len(events["kb_reload"]) != 1 || len(events["kb_reject"]) != 2 {
		t.Fatalf("log events = %v, want one kb_reload and one kb_reject per bad file", events)
	}
	if r := events["kb_reject"]; !(r[0] == "garbled.json" && r[1] == "unknown.json") {
		t.Errorf("rejected files = %v, want garbled.json then unknown.json", r)
	}
}
