// Package bench is plabi's one benchmark: five seeded workloads driven
// through the product as deployed by default, a handful of end-to-end
// metrics every workload reports, and a per-layer decomposition obtained
// by replaying each operation at successively deeper entry points of the
// stack. BENCHMARK.json at the repository root declares the workloads,
// the metric names, units and regression bounds; this package reads it
// at run time, so the declaration and the harness cannot drift apart
// silently (a test asserts they agree exactly).
//
// See bench/README.md for why each workload exists and how to read the
// numbers.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestName is the benchmark declaration at the repository root.
const ManifestName = "BENCHMARK.json"

// MetricSpec is one declared metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before a comparison
// calls it a regression; per-layer metrics carry no bound.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and records why it was chosen.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Manifest mirrors BENCHMARK.json.
type Manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`

	// Root is the directory the manifest was found in (not serialized).
	Root string `json:"-"`
}

// FindManifest loads BENCHMARK.json from the working directory or the
// nearest ancestor holding one (tests run from the package directory,
// the command from the repository root).
func FindManifest() (*Manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, fmt.Errorf("bench: working directory: %w", err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, ManifestName))
		if err == nil {
			var m Manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("bench: parse %s: %w", ManifestName, err)
			}
			m.Root = dir
			return &m, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("bench: no %s in the working directory or above it", ManifestName)
		}
		dir = parent
	}
}

// OutDir is where result files, traces and scratch data (audit sinks,
// segment stores) go: inside the benchmark's own directory, so a run
// never writes outside its checkout.
func (m *Manifest) OutDir() string { return filepath.Join(m.Root, "bench", "out") }

// HasWorkload reports whether name is declared.
func (m *Manifest) HasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
