package obs

// Build identity: which exact code is this process running? The VCS
// revision is embedded by the Go toolchain (runtime/debug.ReadBuildInfo)
// whenever the module is built from a git checkout, so no ldflags plumbing
// is needed. Exposed three ways: the -version flag of every CLI
// (VersionString), the /statusz Build block, and the Prometheus convention
// of a constant semfeed_build_info{revision,go_version} 1 gauge that
// dashboards join against to annotate deploys.

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary.
type BuildInfo struct {
	// Revision is the short VCS revision, with a "+dirty" suffix when the
	// working tree had local modifications; "unknown" outside a VCS build.
	Revision string `json:"revision"`
	// FullRevision is the complete VCS hash ("" outside a VCS build).
	FullRevision string `json:"full_revision,omitempty"`
	// VCSTime is the commit timestamp (RFC 3339), when known.
	VCSTime string `json:"vcs_time,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Module is the main module path.
	Module string `json:"module,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// GetBuildInfo returns the (cached) build identity of the running binary.
func GetBuildInfo() BuildInfo {
	buildOnce.Do(func() {
		buildInfo = readBuildInfo()
	})
	return buildInfo
}

func readBuildInfo() BuildInfo {
	bi := BuildInfo{Revision: "unknown", GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	var rev, dirty, vcsTime string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	if rev != "" {
		bi.FullRevision = rev
		short := rev
		if len(short) > 12 {
			short = short[:12]
		}
		if dirty == "true" {
			short += "+dirty"
		}
		bi.Revision = short
	}
	bi.VCSTime = vcsTime
	return bi
}

// VersionString renders the one-line output of the CLIs' -version flag.
func VersionString(tool string) string {
	bi := GetBuildInfo()
	s := tool + " " + bi.Revision + " (" + bi.GoVersion
	if bi.VCSTime != "" {
		s += ", " + bi.VCSTime
	}
	return s + ")"
}

// BuildInfoGauge is the conventional constant gauge: value 1, identity in
// the labels, so dashboards can annotate deploys by joining on revision.
var BuildInfoGauge = NewGauge("semfeed_build_info",
	"Build identity of the running binary (constant 1; identity in the labels).",
	"revision", "go_version")

func init() {
	// Set lazily via collector: gauge writes are gated on the enabled flag,
	// which is off at init time.
	RegisterCollector(func() {
		bi := GetBuildInfo()
		BuildInfoGauge.Set(1, bi.Revision, bi.GoVersion)
	})
}
