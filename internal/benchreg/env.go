package benchreg

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Env is the environment fingerprint stored in every snapshot. Two
// snapshots are only comparable as absolute throughput when their
// fingerprints match; the gate downgrades throughput regressions to
// warnings otherwise (a slower runner makes every kernel "regress"
// uniformly, which is information about the machine, not the code).
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// CPUModel is the host CPU's model string (best effort: parsed from
	// /proc/cpuinfo on Linux, empty elsewhere).
	CPUModel string `json:"cpu_model,omitempty"`
}

// Fingerprint captures the current process environment. It is
// deterministic for a fixed process: calling it twice yields equal values.
func Fingerprint() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
}

// Comparable reports whether throughput from e and other may be compared
// as absolute numbers: same architecture, parallelism, and (when both
// sides know it) the same CPU model. Go patch version is deliberately not
// part of the key — a toolchain bump that slows a kernel is exactly the
// kind of regression the gate exists to surface.
func (e Env) Comparable(other Env) bool {
	if !e.sameTarget(other) {
		return false
	}
	if e.CPUModel != "" && other.CPUModel != "" && e.CPUModel != other.CPUModel {
		return false
	}
	return true
}

// sameTarget reports whether e and other ran the same GOOS, GOARCH and
// GOMAXPROCS: the same binary then allocates the same objects, whatever
// the CPU model.
func (e Env) sameTarget(other Env) bool {
	return e.GOOS == other.GOOS && e.GOARCH == other.GOARCH && e.GOMAXPROCS == other.GOMAXPROCS
}

// String renders the fingerprint on one line for tables and logs.
func (e Env) String() string {
	parts := []string{e.GoVersion, e.GOOS + "/" + e.GOARCH}
	if e.CPUModel != "" {
		parts = append(parts, e.CPUModel)
	}
	parts = append(parts, "GOMAXPROCS="+strconv.Itoa(e.GOMAXPROCS))
	return strings.Join(parts, " ")
}

// cpuModel parses the first "model name" line of /proc/cpuinfo. Any
// failure (non-Linux, restricted container) yields "": the fingerprint
// then compares on the remaining fields only.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "model name") {
			continue
		}
		if _, val, ok := strings.Cut(line, ":"); ok {
			return strings.TrimSpace(val)
		}
	}
	return ""
}
