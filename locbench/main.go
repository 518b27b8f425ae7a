// Command locbench is the location service's end-to-end benchmark. It
// composes the shipped roles in one process from the constructors
// cmd/locserver uses — the standalone store, four cluster nodes and a
// replicated coordinator — connects them over loopback HTTP, drives
// one seeded workload for a fixed time and prints every metric by name
// with its unit. After the timed phase it checks a fixed set of answers
// against an in-process scan oracle.
//
//	locbench --workload city-fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the run wraps every layer boundary in spans, writes
// them to --out and prints per-layer metrics and a wall-time ledger
// instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	out         string        // directory for span files
	memberDelay time.Duration // injected into member query calls (gate self-test)
}

// outcome is a finished run: its correctness, operation counts and
// metrics, plus lines for the human-readable report.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
	notes     []string
	ledger    map[string]float64 // traced runs: layer -> seconds
	traced    int                // traced runs: traced queries
}

func (o *outcome) note(format string, a ...any) { o.notes = append(o.notes, fmt.Sprintf(format, a...)) }

// End-to-end metrics (untraced runs) and per-layer metrics (traced
// runs), with their units. Every workload reports every metric of its
// mode; a layer a workload does not exercise reports 0.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"heap_live_mb":         "MB",
	"samples_per_s":        "1/s",
	"updates_per_obj_h":    "1/h",
	"bytes_per_obj_h":      "B/h",
	"mean_err_m":           "m",
	"ingest_updates_per_s": "1/s",
	"ingest_p50_ms":        "ms",
	"ingest_p95_ms":        "ms",
	"position_p50_us":      "us",
	"nearest_p50_us":       "us",
	"within_p50_us":        "us",
	"query_p95_us":         "us",
}

var layerUnits = map[string]string{
	"sim.step_self_s":                          "s",
	"core.updates_per_sample":                  "ratio",
	"core.bytes_per_update":                    "B",
	"wire.ingest.encode_self_ms":               "ms",
	"wire.ingest.bytes_per_record":             "B",
	"wire.query.codec_self_us":                 "us",
	"wire.http.front_rtt_self_us":              "us",
	"wire.http.member_rtt_self_us":             "us",
	"cluster.ingest.self_us_per_frame":         "us",
	"cluster.ingest.member_records_per_record": "ratio",
	"cluster.query.position.self_us":           "us",
	"cluster.query.nearest.self_us":            "us",
	"cluster.query.within.self_us":             "us",
	"cluster.query.position.member_calls":      "count",
	"cluster.query.nearest.member_calls":       "count",
	"cluster.query.within.member_calls":        "count",
	"cluster.member.records_max_over_min":      "ratio",
	"cluster.hints":                            "count",
	"cluster.member_errors":                    "count",
	"locserv.http.self_us":                     "us",
	"locserv.apply.us_per_record":              "us",
	"locserv.query.position_us":                "us",
	"locserv.query.nearest_us":                 "us",
	"locserv.query.within_us":                  "us",
	"locserv.index.cells_visited_per_query":    "count",
	"locserv.index.scan_fallback_frac":         "frac",
	"locserv.index.cell_moves_per_update":      "ratio",
	"loadgen.late_p99_ms":                      "ms",
	"runtime.gc_cpu_frac":                      "frac",
	"runtime.alloc_mb_per_s":                   "MB/s",
	"trace.overhead_frac":                      "frac",
	"ledger.sim.frac":                          "frac",
	"ledger.wire.frac":                         "frac",
	"ledger.cluster.frac":                      "frac",
	"ledger.locserv.frac":                      "frac",
	"ledger.loadgen.frac":                      "frac",
	"ledger.residual.frac":                     "frac",
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"city-fleet": runCityFleet,
	"rush-hour":  runRushHour,
	"dispatch":   runDispatch,
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "city-fleet", "workload: city-fleet, rush-hour or dispatch")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: picks the city, the fleet and the query schedule")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase, s")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing per-layer metrics and a ledger")
	flag.StringVar(&cfg.out, "out", ".bench_build/locbench", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.trace = traceFlag != 0
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "locbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, o)
}

// report prints the human-readable lines, then the result object as
// the last line.
func report(w *os.File, cfg runConfig, o *outcome) {
	units := e2eUnits
	if cfg.trace {
		units = layerUnits
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(units))
	for name := range units {
		names = append(names, name)
	}
	sort.Strings(names)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: o.correct, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]metric{}}
	for _, name := range names {
		v, ok := o.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-44s %16.6g %s\n", name, v, units[name])
		out.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	fmt.Fprintf(w, "%-44s %16.6g\n", "failed_frac", float64(o.failed)/float64(max(o.attempted, 1)))
	line, _ := json.Marshal(out) // plain numbers and strings always encode
	fmt.Fprintln(w, string(line))
}

// liveHeapMB collects garbage and returns the live heap in MiB. The
// second collection frees what the first only moved out of sync.Pools.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// rtSnap is a runtime counter snapshot for GC CPU share and allocation
// rate over a phase.
type rtSnap struct {
	gcCPU, totalCPU, alloc float64
	at                     time.Time
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return rtSnap{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		alloc:    float64(s[2].Value.Uint64()),
		at:       time.Now(),
	}
}

// runtimeMetrics fills the runtime.* per-layer metrics for a phase.
func runtimeMetrics(m map[string]float64, a, b rtSnap) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	m["runtime.alloc_mb_per_s"] = (b.alloc - a.alloc) / (1 << 20) / b.at.Sub(a.at).Seconds()
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// latencyMetrics fills the end-to-end latency metrics from a tally.
func latencyMetrics(m map[string]float64, st *opStats) {
	m["ingest_p50_ms"] = st.ingest.quantile(0.5) / 1e6
	m["ingest_p95_ms"] = st.ingest.quantile(0.95) / 1e6
	m["position_p50_us"] = st.lat[opPosition].quantile(0.5) / 1e3
	m["nearest_p50_us"] = st.lat[opNearest].quantile(0.5) / 1e3
	m["within_p50_us"] = st.lat[opWithin].quantile(0.5) / 1e3
	m["query_p95_us"] = st.allQueries().quantile(0.95) / 1e3
}

// countNote records the sample counts behind the percentiles.
func countNote(o *outcome, st *opStats) {
	o.note("samples: %d frames, %d position, %d nearest, %d within queries; slo_miss_frac %.6g (queries over %v, or failed)",
		len(st.ingest), len(st.lat[opPosition]), len(st.lat[opNearest]), len(st.lat[opWithin]),
		float64(st.sloMiss)/float64(max(st.queries, 1)), sloLimit)
	for _, e := range st.errs {
		o.note("error: %s", e)
	}
}

// sloLimit is the query latency limit behind slo_miss_frac.
const sloLimit = 20 * time.Millisecond

// ledgerMetrics turns a layer→seconds ledger into the ledger.* metrics
// over wall seconds and prints it.
func ledgerMetrics(o *outcome, ledger map[string]float64, wall float64) {
	o.ledger = ledger
	var sum float64
	for _, l := range []string{"sim", "wire", "cluster", "locserv", "loadgen"} {
		o.metrics["ledger."+l+".frac"] = ledger[l] / wall
		sum += ledger[l]
		o.note("ledger %-8s %10.4f s  %6.2f%%", l, ledger[l], 100*ledger[l]/wall)
	}
	if ledger["other"] != 0 {
		o.note("ledger other    %10.4f s (unclassified spans)", ledger["other"])
	}
	o.metrics["ledger.residual.frac"] = (wall - sum) / wall
	o.note("ledger residual %10.4f s  %6.2f%%  of wall %.4f s", wall-sum, 100*(wall-sum)/wall, wall)
}
