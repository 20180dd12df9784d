package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"semfeed/internal/analysis"
	"semfeed/internal/core"
)

// buggyWalk satisfies counter-increment but carries two dead stores (the
// initializer 99 is overwritten unread; the overwrite itself is never read)
// for the analyzers to find.
const buggyWalk = `void walk(int n) {
  int waste = 99;
  waste = 1;
  int i = 0;
  while (i < n) {
    i++;
  }
  System.out.println(i);
}`

func writeAnalysisDef(t *testing.T, path, analyzersField string) {
	t.Helper()
	def := fmt.Sprintf(`{
  "id": "lint",
  "methods": [
    {"name": "walk", "patterns": [{"name": "counter-increment", "count": 1}]}
  ]%s
}`, analyzersField)
	if err := os.WriteFile(path, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
}

func gradeLint(t *testing.T, ts *httptest.Server) core.Report {
	t.Helper()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "lint", Source: buggyWalk})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var rep core.Report
	if err := json.Unmarshal(gr.Report, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestGradeResponseCarriesDiagnostics pins that /v1/grade responses expose
// the analyzer findings when the server runs with a default driver, and that
// a KB definition's own analyzers list overrides it per assignment — all
// hot-reloadable through the registry snapshot swap.
func TestGradeResponseCarriesDiagnostics(t *testing.T) {
	dir := t.TempDir()
	defPath := filepath.Join(dir, "lint.json")
	writeAnalysisDef(t, defPath, "")

	reg := NewRegistry(dir, nil)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	reg.Start(5 * time.Millisecond)
	defer reg.Stop()

	srv := New(Config{
		Registry:     reg,
		GradeOptions: core.Options{Analyzers: analysis.DefaultDriver()},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep := gradeLint(t, ts)
	byAnalyzer := map[string]int{}
	for _, d := range rep.Diagnostics {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["deadstore"] == 0 {
		t.Fatalf("grade response lacks deadstore diagnostic: %v", rep.Diagnostics)
	}
	if rep.Stats == nil || rep.Stats.AnalysisFindings["deadstore"] != byAnalyzer["deadstore"] {
		t.Errorf("stats analysis_findings missing: %+v", rep.Stats)
	}

	// Hot-swap the definition to restrict this assignment to constcond: the
	// dead store must vanish without a server restart.
	oldVersion := reg.Get("lint").Version
	writeAnalysisDef(t, defPath, `,
  "analyzers": ["constcond"]`)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Get("lint").Version == oldVersion {
		if time.Now().After(deadline) {
			t.Fatal("registry never picked up the new definition")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep = gradeLint(t, ts)
	if len(rep.Diagnostics) != 0 {
		t.Fatalf("per-assignment analyzers=[constcond] should suppress findings, got %v", rep.Diagnostics)
	}
}

// TestGradeResponseNoDiagnosticsWhenDisabled pins the zero-overhead path:
// without a driver the report JSON carries no Diagnostics field at all.
func TestGradeResponseNoDiagnosticsWhenDisabled(t *testing.T) {
	dir := t.TempDir()
	writeAnalysisDef(t, filepath.Join(dir, "lint.json"), "")
	reg := NewRegistry(dir, nil)
	if err := reg.Load(); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Registry: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/grade", GradeRequest{Assignment: "lint", Source: buggyWalk})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var gr GradeResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(gr.Report, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["Diagnostics"]; present {
		t.Error("disabled analysis must omit Diagnostics from the report JSON")
	}
}
