// Package semfeed reproduces "Automated Personalized Feedback in
// Introductory Java Programming MOOCs" (Marin, Pereira, Sridharan, Rivero —
// ICDE 2017): a semantic-aware grading engine that compiles Java submissions
// into extended program dependence graphs and matches instructor patterns
// with attached natural-language feedback over them.
//
// The public surface lives under internal/ packages:
//
//	internal/core        the grading engine (Algorithm 2) — start here
//	internal/pattern     pattern model (Definitions 4-5)
//	internal/match       subgraph matching (Algorithm 1)
//	internal/constraint  equality / edge / containment constraints
//	internal/pdg         extended program dependence graphs
//	internal/kb          the knowledge base: 24 patterns, 12 assignment files
//	internal/assignments loads the twelve Table I assignments from internal/kb
//
// See README.md for a walkthrough, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-vs-measured record. The benchmarks in
// bench_test.go regenerate every Table I column and the Section VI-C
// comparisons.
package semfeed
