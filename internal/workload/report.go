package workload

import (
	"runtime"
	"runtime/debug"
)

// The report emitted by fdaload carries goos/goarch/env metadata next
// to the load-specific sections (spec or trace, load).

// Env is the report's environment block: toolchain, cores and the VCS
// revision the binary was built from.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Report is fdaload's JSON output document.
type Report struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Env    Env    `json:"env"`
	// Spec echoes the generated workload (nil for trace replays).
	Spec *Spec `json:"spec,omitempty"`
	// Trace names the replayed trace source, when replaying.
	Trace string `json:"trace,omitempty"`
	// Load is the run's aggregate and per-kind statistics.
	Load RunStats `json:"load"`
}

// EnvMeta samples the running process's environment for the report's
// env block.
func EnvMeta() Env {
	e := Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.VCSRevision = s.Value
			case "vcs.modified":
				e.VCSModified = s.Value == "true"
			}
		}
	}
	return e
}

// BuildReport assembles the output document: env metadata and the run's
// statistics.
func BuildReport(spec *Spec, stats RunStats) Report {
	return Report{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Env:  EnvMeta(),
		Spec: spec,
		Load: stats,
	}
}
