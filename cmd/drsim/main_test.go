package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapdr/internal/experiments"
	"mapdr/internal/locserv"
)

var tinyOpts = experiments.Options{Seed: 42, Scale: 0.05}

func TestRunAllExperimentIDs(t *testing.T) {
	// Every experiment id must execute without error at tiny scale.
	ids := []string{
		"table1", "fig7", "fig8", "fig9", "fig10", "headline",
		"ablate-prob", "ablate-route", "ablate-wolfson", "ablate-um",
		"ablate-nsight", "ablate-pred", "history", "disconnect", "bandwidth",
	}
	for _, id := range ids {
		if err := run(id, tinyOpts, false, ""); err != nil {
			t.Errorf("exp %q: %v", id, err)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	if err := run("table1", tinyOpts, true, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigSVG(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig6.svg")
	if err := run("fig6", tinyOpts, false, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") || !strings.Contains(string(data), "<circle") {
		t.Error("SVG output missing expected elements")
	}
}

func TestRunFigureChartSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig7.svg")
	if err := run("fig7", tinyOpts, false, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<polyline") {
		t.Error("chart SVG missing series")
	}
}

func TestRunFigASCII(t *testing.T) {
	if err := run("fig3", tinyOpts, false, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("nope", tinyOpts, false, ""); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// TestRunFleetTransports executes the fleet experiment over every
// transport at tiny scale: in-process, the lossy netsim link, and the
// full HTTP loopback-network path.
func TestRunFleetTransports(t *testing.T) {
	base := fleetConfig{n: 3, shards: 4, workers: 2, seed: 42, scale: 0.05}
	for _, tr := range []string{"inproc", "lossy", "http"} {
		cfg := base
		cfg.transport = tr
		if tr == "lossy" {
			cfg.loss = 0.2
			cfg.latency = 1
		}
		if err := runFleet(cfg, true); err != nil {
			t.Errorf("transport %q: %v", tr, err)
		}
	}
	bad := base
	bad.transport = "carrier-pigeon"
	if err := runFleet(bad, true); err == nil {
		t.Error("unknown transport should fail")
	}
}

// TestRunChurn executes the churn experiment at tiny scale: full-rate
// ingest with concurrent readers, the zero-scan-fallback assertion and
// the bit-identical post-quiesce sweep all run for real.
func TestRunChurn(t *testing.T) {
	cfg := fleetConfig{shards: 8, workers: 2, seed: 42, scale: 0.01}
	if err := runChurn(cfg, true); err != nil {
		t.Fatal(err)
	}
}

// TestRunClusterDrills runs the five cluster drills at the CI-smoke
// sizes. Each drill hard-asserts its own contract (zero query errors,
// demotion, steal and resume, bit-identical convergence), so a nil
// error is the pass condition. Each drill must also reject a cluster
// too small for its fault script, and R<2 where a lost partition
// could not survive the fault.
func TestRunClusterDrills(t *testing.T) {
	drills := []struct {
		name     string
		run      func(fleetConfig, bool) error
		nodes    int  // CI-smoke size
		minNodes int  // one fewer is rejected
		needR2   bool // R=1 is rejected
	}{
		{"cluster", runCluster, 4, 1, false},
		{"failover", runFailover, 3, 2, true},
		{"selfheal", runSelfheal, 4, 3, true},
		{"chaos", runChaos, 4, 4, true},
		{"fanin", runFanin, 4, 2, false},
	}
	for _, d := range drills {
		t.Run(d.name, func(t *testing.T) {
			cfg := fleetConfig{n: 30, nodes: d.nodes, replicas: 2, shards: locserv.DefaultShards,
				workers: 2, seed: 42, scale: 0.1}
			if err := d.run(cfg, true); err != nil {
				t.Fatal(err)
			}
			few := cfg
			few.nodes = d.minNodes - 1
			if err := d.run(few, true); err == nil || !strings.Contains(err.Error(), "at least") {
				t.Errorf("%d nodes: got %v, want a minimum-node rejection", few.nodes, err)
			}
			if d.needR2 {
				r1 := cfg
				r1.replicas = 1
				if err := d.run(r1, true); err == nil || !strings.Contains(err.Error(), "-replicas >= 2") {
					t.Errorf("R=1: got %v, want a -replicas >= 2 rejection", err)
				}
			}
			bad := cfg
			bad.scale = 0
			if err := d.run(bad, true); err == nil {
				t.Error("scale 0 should be rejected")
			}
		})
	}
}
