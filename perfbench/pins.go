package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"semfeed/internal/assignments"
	"semfeed/internal/bench"
	"semfeed/internal/core"
)

// pinsJSON holds the outputs recorded at the default seed; a later change
// that alters a grade or a Table I row fails the run at that seed.
//
//go:embed pins.json
var pinsJSON []byte

// pins are the recorded outputs.
type pins struct {
	Seed int64 `json:"seed"`
	// TableN is the per-assignment budget the Table I rows were swept at.
	TableN int `json:"tableone_n"`
	// Cold maps each serve-cold base variant, "<assignment>/<space index>",
	// to its grade's score and per-comment statuses.
	Cold map[string]string `json:"serve_cold"`
	// Table maps each assignment to its Table I row's checked columns.
	Table map[string]tablePin `json:"tableone"`
}

type tablePin struct {
	Discrepancies int `json:"discrepancies"`
	ParseFailures int `json:"parse_failures"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	if p.Seed != defaultSeed || p.TableN != tableN {
		return nil, fmt.Errorf("pins.json was recorded at seed %d, n %d; want seed %d, n %d", p.Seed, p.TableN, defaultSeed, tableN)
	}
	return &p, nil
}

// writePins records the default seed's outputs: core.Grader.Grade on every
// serve-cold base variant, and one Table I sweep.
func writePins(path string) error {
	p := pins{Seed: defaultSeed, TableN: tableN, Cold: map[string]string{}, Table: map[string]tablePin{}}
	in := newColdInputs(defaultSeed)
	grader := core.NewGrader(serveGradeOptions())
	for ai, a := range in.all {
		for vi, src := range in.variants[ai] {
			rep, err := grader.Grade(src, a.Spec)
			if err != nil {
				return fmt.Errorf("grade %s: %w", in.variantKey(ai, vi), err)
			}
			p.Cold[in.variantKey(ai, vi)] = reportOutcome(rep)
		}
	}
	setTelemetry(false)
	for _, a := range assignments.All() {
		row := bench.MeasureRowOpts(a, bench.Options{MaxSubs: tableN, Seed: defaultSeed})
		p.Table[a.ID] = tablePin{Discrepancies: row.D, ParseFailures: row.ParseFail}
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
