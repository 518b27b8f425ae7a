// Command drsim regenerates the paper's tables and figures from the
// simulation and runs the fleet, churn and cluster experiments below.
//
// Usage:
//
//	drsim -exp table1
//	drsim -exp fig7 [-csv]          # freeway sweep (figs 7-10: fig8/fig9/fig10)
//	drsim -exp fig3 -svg fig3.svg   # update trail, linear prediction
//	drsim -exp fig6 -svg fig6.svg   # update trail, map-based
//	drsim -exp headline
//	drsim -exp ablate-prob|ablate-route|ablate-wolfson|ablate-um|ablate-nsight|ablate-pred
//	drsim -exp history              # §2 history-based DR convergence
//	drsim -exp disconnect           # Wolfson dtdr across a link outage
//	drsim -exp bandwidth            # bytes/h vs naive 1 Hz reporting
//	drsim -exp fleet -fleet 100 -shards 16 -workers 8
//	                                # parallel fleet vs sharded location store
//	drsim -exp fleet -transport http
//	                                # end-to-end: wire frames over loopback TCP
//	drsim -exp fleet -transport lossy -loss 0.2 -latency 3
//	                                # updates through the netsim lossy link
//	drsim -exp cluster -nodes 4 -fleet 200
//	                                # partition-aware cluster: consistent-hash
//	                                # routed ingest + scatter-gather queries,
//	                                # per-node throughput and query tail latency
//	drsim -exp cluster -nodes 4 -replicas 2
//	                                # same, with every key range on R=2 members
//	drsim -exp failover -nodes 4 -replicas 2 -fleet 100
//	                                # kill a node mid-fleet: answer availability
//	                                # and staleness vs a no-failure reference,
//	                                # hinted-handoff and read-repair accounting
//	drsim -exp selfheal -nodes 4 -replicas 2 -fleet 100
//	                                # kill a node and never call an operator:
//	                                # the self-healing membership detects,
//	                                # demotes and rebalances on its own; the
//	                                # run asserts zero query errors and a
//	                                # converged store vs the reference
//	drsim -exp chaos -nodes 4 -replicas 2 -fleet 100
//	                                # everything at once under full load: a
//	                                # scripted plan joins a member, fires a
//	                                # loss burst, removes a member live,
//	                                # kills another (self-heal demotes it),
//	                                # spikes latency and reweights — all on
//	                                # the incremental migration engine; the
//	                                # run asserts zero query errors, bounded
//	                                # staleness and O(1) routing-lock holds,
//	                                # and bit-identical convergence
//	drsim -exp churn [-scale 0.01]
//	                                # live-index hot path: 10k and 100k
//	                                # objects reporting at full rate while
//	                                # readers run a mixed 10-NN / range
//	                                # load; reports query p50/p95/p99 and
//	                                # the index maintenance counters, then
//	                                # hard-asserts zero scan fallbacks and
//	                                # bit-identical answers vs. the scan
//	                                # reference
//	drsim -exp fanin -nodes 4 -replicas 2 -fleet 100
//	                                # two fan-in coordinators front one
//	                                # cluster, splitting ingest and queries;
//	                                # the one driving a live join is killed
//	                                # mid-copy; its peer steals the fenced
//	                                # lease after expiry, resumes the run
//	                                # from the replicated membership log and
//	                                # commits it; the run asserts the steal,
//	                                # the resume, zero query errors and
//	                                # bit-identical convergence
//
// -scale 0.1 shrinks the scenarios for quick runs; the defaults reproduce
// the paper's full trace lengths. The fleet experiment drives -fleet
// vehicles on -workers goroutines against a location store with -shards
// shards and reports ingestion/accuracy/throughput numbers. -transport
// selects how updates reach the store: inproc (loopback, the default),
// lossy (internal/netsim latency/jitter/loss; see -loss, -latency,
// -jitter), or http (binary wire frames POSTed to a real locserv ingest
// endpoint on a loopback TCP listener — the full networked client/server
// path).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/experiments"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/netsim"
	"mapdr/internal/obs"
	"mapdr/internal/sim"
	"mapdr/internal/stats"
	"mapdr/internal/viz"
	"mapdr/internal/wire"
)

func main() {
	var (
		exp       = flag.String("exp", "table1", "experiment id (table1, fig3, fig6, fig7-fig10, headline, fleet, cluster, failover, selfheal, chaos, fanin, churn, ablate-*)")
		seed      = flag.Int64("seed", 42, "deterministic scenario seed")
		scale     = flag.Float64("scale", 1.0, "scenario scale in (0,1]; 1 = paper scale")
		csv       = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		svg       = flag.String("svg", "", "write an SVG rendering to this path (fig3/fig6)")
		fleetN    = flag.Int("fleet", 50, "vehicles in the fleet experiment")
		nodes     = flag.Int("nodes", 4, "cluster experiment: member node count")
		replicas  = flag.Int("replicas", 0, "cluster/failover: replicas per key range (0 = experiment default)")
		shards    = flag.Int("shards", locserv.DefaultShards, "location-store shards in the fleet experiment")
		workers   = flag.Int("workers", 0, "fleet worker goroutines (0 = all CPUs)")
		transport = flag.String("transport", "inproc", "fleet update transport: inproc, lossy or http")
		loss      = flag.Float64("loss", 0, "lossy transport: per-message loss probability")
		latency   = flag.Float64("latency", 0, "lossy transport: one-way delay, s")
		jitter    = flag.Float64("jitter", 0, "lossy transport: max additional random delay, s")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	)
	flag.Parse()
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drsim:", err)
		os.Exit(1)
	}
	if runFleetExp, ok := fleetExperiments[*exp]; ok {
		err = runFleetExp(fleetConfig{
			n: *fleetN, nodes: *nodes, replicas: *replicas, shards: *shards, workers: *workers,
			seed: *seed, scale: *scale,
			transport: *transport, loss: *loss, latency: *latency, jitter: *jitter,
		}, *csv)
	} else {
		err = run(*exp, experiments.Options{Seed: *seed, Scale: *scale}, *csv, *svg)
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "drsim:", err)
		os.Exit(1)
	}
}

// fleetExperiments are the experiments configured by a fleetConfig
// instead of experiments.Options.
var fleetExperiments = map[string]func(fleetConfig, bool) error{
	"fleet":    runFleet,
	"cluster":  runCluster,
	"failover": runFailover,
	"selfheal": runSelfheal,
	"chaos":    runChaos,
	"churn":    runChurn,
	"fanin":    runFanin,
}

// startProfiles enables CPU profiling and arranges the heap snapshot;
// the returned stop function finishes both so hot-path hunts over any
// experiment need no ad-hoc instrumentation:
//
//	drsim -exp fleet -fleet 10000 -cpuprofile cpu.pprof -memprofile mem.pprof
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // settle live objects so the snapshot is meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// fleetConfig parameterises the fleet, churn and cluster experiments.
type fleetConfig struct {
	n, shards, workers    int
	nodes, replicas       int
	seed                  int64
	scale                 float64
	transport             string
	loss, latency, jitter float64
}

// runFleet drives a simulated city fleet against a sharded location
// store and reports scale metrics: protocol traffic, server accuracy
// and wall-clock throughput. The update path is selectable: in-process
// loopback, the netsim lossy link, or the full networked stack — wire
// frames POSTed over loopback TCP into the store's HTTP ingest
// endpoint.
func runFleet(cfg fleetConfig, csv bool) error {
	if err := cfg.setDefaults(); err != nil {
		return err
	}
	// Set up the transport before the expensive map/fleet generation so
	// a bad -transport flag fails instantly.
	svc := locserv.NewSharded(cfg.shards)
	var tr wire.Transport
	switch cfg.transport {
	case "inproc", "":
		// nil: Fleet uses the in-process loopback.
	case "lossy":
		tr = wire.NewSimLink(netsim.NewLink(cfg.seed, cfg.latency, cfg.jitter, cfg.loss), svc.Sink(nil))
	case "http":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: svc.HandlerWithIngest(nil), ReadHeaderTimeout: 5 * time.Second}
		go hs.Serve(ln)
		defer hs.Close()
		tr = wire.NewClient("http://"+ln.Addr().String(), nil)
	default:
		return fmt.Errorf("unknown transport %q (inproc, lossy, http)", cfg.transport)
	}

	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(cfg.seed))
	if err != nil {
		return err
	}
	objs, err := sim.GenerateFleet(cor.Graph, svc, cityFleetSpec(cfg))
	if err != nil {
		return err
	}

	fl := sim.Fleet{Service: svc, Objects: objs, Workers: cfg.workers, Transport: tr}
	startT := time.Now()
	res, err := fl.Run()
	if err != nil {
		return err
	}
	wall := time.Since(startT)
	// "sent bytes" is the encoded record traffic offered to the
	// transport (wire.Stats.BytesSent: id + reason + report per update);
	// the server-side /stats wire_bytes counts applied reports only.
	tb := stats.NewTable("vehicles", "shards", "workers", "transport", "samples", "updates",
		"dropped", "sent bytes", "mean err [m]", "wall [ms]", "samples/s")
	name := cfg.transport
	if name == "" {
		name = "inproc"
	}
	tb.AddRow(cfg.n, svc.Shards(), fl.Workers, name, res.Samples, totalUpdates(res),
		res.Wire.Dropped, res.Wire.BytesSent, res.MeanErr,
		wall.Milliseconds(), float64(res.Samples)/wall.Seconds())
	return emit(tb, csv)
}

// runCluster drives the fleet against a partition-aware cluster: N
// in-process location-service nodes behind a consistent-hash
// coordinator that routes each ingest batch per partition and
// scatter-gathers the queries. While the fleet runs, every simulated
// second issues a 10-NN scatter-gather query whose wall-clock latency
// feeds the tail-latency report; per-node routed records and applied
// updates show the partition balance.
func runCluster(cfg fleetConfig, csv bool) error {
	s, err := newScenario(cfg, drillRules{name: "cluster", minNodes: 1,
		nodesErr: "need at least one cluster node", defaultR: 1})
	if err != nil {
		return err
	}
	cfg = s.cfg
	coord, _, _, err := s.coordinator(false)
	if err != nil {
		return err
	}
	objs, err := sim.GenerateFleet(s.g, coord, cityFleetSpec(cfg))
	if err != nil {
		return err
	}

	// Query mix riding along: one 10-NN scatter-gather per simulated
	// second, cycling over deterministic city points. Every query's
	// wall-clock cost is recorded — an empty answer still paid for the
	// scatter and the merge. The latencies land in the same log-bucketed
	// histogram the servers expose on /metrics, so the reported
	// percentiles use one quantile implementation across the repo.
	qLat := obs.NewHistogram("drsim_10nn_seconds", "", obs.TicksSeconds)
	qPoints := []geo.Point{geo.Pt(2500, 2500), geo.Pt(5000, 5000), geo.Pt(7500, 2500), geo.Pt(2500, 7500)}
	fl := sim.Fleet{
		Objects:   objs,
		Workers:   cfg.workers,
		Transport: coord,
		Query:     coord,
		Tick: func(t float64) {
			p := qPoints[int(t)%len(qPoints)]
			q0 := time.Now()
			coord.Nearest(p, 10, t)
			qLat.RecordDur(time.Since(q0))
		},
	}
	startT := time.Now()
	res, err := fl.Run()
	if err != nil {
		return err
	}
	wall := time.Since(startT)

	qs := qLat.Snapshot()
	tb := stats.NewTable("nodes", "R", "vehicles", "shards/node", "workers", "samples", "updates",
		"mean err [m]", "wall [ms]", "samples/s", "10NN p50 [us]", "p95 [us]", "p99 [us]")
	tb.AddRow(cfg.nodes, cfg.replicas, cfg.n, cfg.shards, fl.Workers, res.Samples, totalUpdates(res),
		res.MeanErr, wall.Milliseconds(), float64(res.Samples)/wall.Seconds(),
		qs.Quantile(0.50)*1e6, qs.Quantile(0.95)*1e6, qs.Quantile(0.99)*1e6)
	if err := emit(tb, csv); err != nil {
		return err
	}

	// Partition balance: records the coordinator routed to each node and
	// what the node's store actually applied.
	nt := stats.NewTable("node", "objects", "routed records", "batches", "applied", "errors")
	for _, ms := range coord.MemberStats() {
		nt.AddRow(ms.Name, ms.Node.Objects, ms.Records, ms.Batches, ms.Node.UpdatesApplied, ms.Errors)
	}
	return emit(nt, csv)
}

// timedTransport records the longest wall-clock Send through the
// cluster — the chaos experiment's proxy for an ingest blocking window:
// if a membership change ever held the routing lock across a data copy,
// one Send would stall for the whole copy and this maximum would show
// it.
type timedTransport struct {
	tr    wire.Transport
	maxNs *atomic.Int64
}

func (t timedTransport) Send(now float64, batch []wire.Record) error {
	t0 := time.Now()
	err := t.tr.Send(now, batch)
	ns := time.Since(t0).Nanoseconds()
	for {
		cur := t.maxNs.Load()
		if ns <= cur || t.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	return err
}

func (t timedTransport) Flush(now float64) error { return t.tr.Flush(now) }
func (t timedTransport) Stats() wire.Stats       { return t.tr.Stats() }

// runFailover measures what a node crash costs an R-replicated cluster:
// a fleet streams updates into faulty in-process members while every
// simulated second issues a probe mix (sampled Position queries, one
// 10-NN, one Within). At 40% of the run one member is killed; at 75%
// it recovers and is probed back up, draining its hinted updates. Every
// query answer is compared against a no-failure reference store fed by
// the identical update stream (a tee transport), so the report gives
// answer availability and staleness-in-metres per phase, plus the
// hinted-handoff and read-repair accounting.
func runFailover(cfg fleetConfig, csv bool) error {
	s, err := newScenario(cfg, drillRules{name: "failover", minNodes: 2,
		nodesErr: "failover needs at least two cluster nodes",
		defaultR: 2, r2Err: "failover needs -replicas >= 2 (a lost R=1 partition cannot answer)"},
		"healthy", "node down", "recovered")
	if err != nil {
		return err
	}
	coord, members, injectors, err := s.coordinator(true)
	if err != nil {
		return err
	}
	if err := s.genFleet(coord); err != nil {
		return err
	}
	killT, reviveT := 0.4*s.tEnd, 0.75*s.tEnd
	victim := injectors[len(injectors)-1]
	victimName := members[len(members)-1].Name

	res, wall, err := s.run(coord, coord, func(t float64) {
		if s.phase == 0 && t >= killT {
			victim.Fail()
			s.phase = 1
		}
		if s.phase == 1 && t >= reviveT {
			victim.Recover()
			coord.ProbeDown() // verified recovery + hint drain
			s.phase = 2
		}
		s.probe(coord, t)
	})
	if err != nil {
		return err
	}
	coord.ProbeDown()
	coord.WaitRepairs()

	fmt.Printf("# failover: %d nodes, R=%d, victim %s down over t=[%.0f,%.0f) of %.0f s\n",
		s.cfg.nodes, s.cfg.replicas, victimName, killT, reviveT, s.tEnd)
	if err := s.emitPhases(csv); err != nil {
		return err
	}
	if err := s.emitSummary(csv, res, wall, []string{"degraded queries", "read repairs"},
		coord.DegradedQueries(), coord.Repairs()); err != nil {
		return err
	}

	nt := stats.NewTable("node", "objects", "routed records", "errors", "down",
		"hinted", "drained", "hints pending")
	for _, ms := range coord.MemberStats() {
		nt.AddRow(ms.Name, ms.Node.Objects, ms.Records, ms.Errors, ms.Down,
			ms.Hints.Hinted, ms.Hints.Drained, ms.Hints.Buffered)
	}
	return emit(nt, csv)
}

// runSelfheal is the no-operator failover run: one member is killed at
// 40% of the trace and nobody calls MarkDown, ProbeDown or RemoveNode —
// the self-healing membership has to notice (heartbeat detector), route
// around (breaker + hints) and amputate (auto-demotion past the hint
// deadline) on its own, with the reweight controller armed throughout.
// The run fails unless the victim ends demoted, every query answered
// without error, and the surviving cluster's answers are bit-identical
// to a no-failure reference store fed the same update stream.
func runSelfheal(cfg fleetConfig, csv bool) error {
	s, err := newScenario(cfg, drillRules{name: "selfheal", minNodes: 3,
		nodesErr: "selfheal needs at least three cluster nodes (the demotion must leave a replicated cluster)",
		defaultR: 2, r2Err: "selfheal needs -replicas >= 2 (a lost R=1 partition cannot be demoted without data loss)"},
		"healthy", "down (detecting)", "demoted")
	if err != nil {
		return err
	}
	coord, members, injectors, err := s.coordinator(true)
	if err != nil {
		return err
	}
	if err := s.genFleet(coord); err != nil {
		return err
	}
	tEnd := s.tEnd
	killT := 0.4 * tEnd
	victim := injectors[len(injectors)-1]
	victimName := members[len(members)-1].Name

	// Sim-clock self-healing: heartbeats every simulated second, a
	// single missed beat trips (the fleet ticks in lockstep, so the
	// detector fires before the same tick's probe queries), and the
	// hint deadline is 15% of the trace — the demotion lands mid-run
	// with plenty of trace left to measure the amputated cluster.
	demoteAfter := 0.15 * tEnd
	coord.EnableSelfHeal(cluster.SelfHealConfig{
		HeartbeatEvery: 1,
		SuspectAfter:   1,
		RecoverAfter:   2,
		DemoteAfter:    demoteAfter,
		ReweightEvery:  0.25 * tEnd,
		ReweightRatio:  4,
		ReweightAfter:  2,
	})

	demotedAt := -1.0
	res, wall, err := s.run(coord, coord, func(t float64) {
		if s.phase == 0 && t >= killT {
			victim.Fail() // the only intervention: the crash itself
			s.phase = 1
		}
		coord.Tick(t) // the self-healing loops run on the sim clock
		if s.phase == 1 && coord.SelfHealStats().Demotions > 0 {
			s.phase = 2
			demotedAt = t
		}
		s.probe(coord, t)
	})
	if err != nil {
		return err
	}
	coord.ProbeDown() // final hint sweep (a drain, not a recovery — the victim is gone)
	coord.WaitRepairs()

	// The acceptance assertions: demoted, zero query errors, converged.
	heal := coord.SelfHealStats()
	if !slices.Contains(heal.Demoted, victimName) || len(coord.Nodes()) != s.cfg.nodes-1 {
		return fmt.Errorf("selfheal: victim %s was not auto-demoted (members %v, demoted %v)",
			victimName, coord.Nodes(), heal.Demoted)
	}
	if qe := coord.QueryErrors(); qe != 0 {
		return fmt.Errorf("selfheal: %d query errors; the detector let queries hit the dead member", qe)
	}
	if err := s.converged(coord, "drain"); err != nil {
		return err
	}

	fmt.Printf("# selfheal: %d nodes, R=%d, victim %s killed at t=%.0f s, auto-demoted at t=%.0f s (deadline %.0f s), %.0f s trace\n",
		s.cfg.nodes, s.cfg.replicas, victimName, killT, demotedAt, demoteAfter, tEnd)
	fmt.Printf("# converged bit-identical to the no-failure reference; zero query errors\n")
	if err := s.emitPhases(csv); err != nil {
		return err
	}
	if err := s.emitSummary(csv, res, wall,
		[]string{"heartbeats", "trips", "demotions", "reweights", "degraded queries", "read repairs"},
		heal.Heartbeats, heal.Trips, heal.Demotions, heal.Reweights,
		coord.DegradedQueries(), coord.Repairs()); err != nil {
		return err
	}
	return emitHealthNodes(coord, csv)
}

// twoFront is the ingest/query surface of the fan-in drill: update
// batches and queries alternate across two coordinators while both are
// live, and fail over to co-b alone once co-a is declared dead. Both
// fronts fold the same replicated membership log, so the split stays
// consistent even mid-migration.
type twoFront struct {
	a, b  *cluster.Coordinator
	aLive atomic.Bool
	sends atomic.Int64
	reads atomic.Int64
}

func (f *twoFront) front(n *atomic.Int64) *cluster.Coordinator {
	if f.aLive.Load() && n.Add(1)%2 == 0 {
		return f.a
	}
	return f.b
}

func (f *twoFront) Send(now float64, batch []wire.Record) error {
	return f.front(&f.sends).Send(now, batch)
}

func (f *twoFront) Flush(now float64) error {
	if f.aLive.Load() {
		if err := f.a.Flush(now); err != nil {
			return err
		}
	}
	return f.b.Flush(now)
}

func (f *twoFront) Stats() wire.Stats {
	sa, sb := f.a.Stats(), f.b.Stats()
	return wire.Stats{
		Sent: sa.Sent + sb.Sent, Delivered: sa.Delivered + sb.Delivered, Dropped: sa.Dropped + sb.Dropped,
		BytesSent: sa.BytesSent + sb.BytesSent, BytesDelivered: sa.BytesDelivered + sb.BytesDelivered,
		Frames: sa.Frames + sb.Frames, FrameBytes: sa.FrameBytes + sb.FrameBytes,
		Errors: sa.Errors + sb.Errors, Retries: sa.Retries + sb.Retries,
	}
}

func (f *twoFront) Position(id locserv.ObjectID, t float64) (geo.Point, bool) {
	return f.front(&f.reads).Position(id, t)
}

func (f *twoFront) Nearest(p geo.Point, k int, t float64) []locserv.ObjectPos {
	return f.front(&f.reads).Nearest(p, k, t)
}

func (f *twoFront) Within(r geo.Rect, t float64) []locserv.ObjectPos {
	return f.front(&f.reads).Within(r, t)
}

// runFanin is the multi-coordinator recovery drill: two fan-in
// coordinators front the same cluster, splitting the fleet's ingest and
// queries between them while gossiping the replicated membership log.
// At 35% of the trace co-a acquires the fenced lease and begins a live
// join; an injected crash kills its driver at the second range copy and
// co-a goes dark — no ticks, no abort, no operator. Its Begin record is
// already on the log, so co-b keeps dual routing the orphaned run; once
// the dead leader's lease expires co-b steals it, rebuilds the run from
// the log and drives it to commit. The run asserts the steal and the
// resume happened, the joined member serves its ranges, zero query
// errors on both fronts, identical membership logs, and a post-quiesce
// store bit-identical to a no-failure reference.
func runFanin(cfg fleetConfig, csv bool) error {
	s, err := newScenario(cfg, drillRules{name: "fanin", minNodes: 2,
		nodesErr: "fanin needs at least two cluster nodes", defaultR: 2},
		"steady two-front", "driver down (orphaned join)", "stolen + resumed")
	if err != nil {
		return err
	}

	// The two fronts share the node processes but hold separate Member
	// handles, like two coordinator processes fronting one cluster.
	joinName, joinNode := s.joiner()
	factory := func(name, addr string) (*cluster.Member, error) {
		if name != joinName {
			return nil, fmt.Errorf("fanin: no local handle for joining member %q", name)
		}
		return cluster.NewLocalMember(name, joinNode), nil
	}
	ca, _, _, err := s.coordinator(false)
	if err != nil {
		return err
	}
	cb, _, _, err := s.coordinator(false)
	if err != nil {
		return err
	}
	if err := s.genFleet(ca); err != nil {
		return err
	}
	tEnd := s.tEnd
	migT := 0.35 * tEnd
	leaseFor := 0.08 * tEnd

	// Sim-clock fan-in and self-healing on both fronts. The reweight
	// controller is parked past the trace end so the scripted join is
	// the only membership change; the lease is a twelfth of the trace,
	// leaving plenty of tail to measure the recovered cluster.
	for _, co := range []*cluster.Coordinator{ca, cb} {
		co.EnableSelfHeal(cluster.SelfHealConfig{
			HeartbeatEvery: 1,
			SuspectAfter:   1,
			RecoverAfter:   2,
			DemoteAfter:    0.15 * tEnd,
			ReweightEvery:  10 * tEnd,
			ReweightRatio:  4,
			ReweightAfter:  2,
		})
	}
	ca.EnableFanIn("co-a", cluster.FanInConfig{LeaseFor: leaseFor, GossipEvery: 1, MemberFactory: factory})
	cb.EnableFanIn("co-b", cluster.FanInConfig{LeaseFor: leaseFor, GossipEvery: 1, MemberFactory: factory})
	if err := ca.AddPeerCoordinator("co-b", wire.NewPeerLoopback(cb)); err != nil {
		return err
	}
	if err := cb.AddPeerCoordinator("co-a", wire.NewPeerLoopback(ca)); err != nil {
		return err
	}

	tf := &twoFront{a: ca, b: cb}
	tf.aLive.Store(true)
	killedAt, stolenAt := -1.0, -1.0
	var migErr error
	probe := 0
	res, wall, err := s.run(tf, tf, func(t float64) {
		if s.phase == 0 && t >= migT && migErr == nil {
			// The scripted crash: co-a begins the join, its driver is
			// killed at the second range copy, and from this tick on
			// co-a is dead — no ticks, no sends, no queries, no abort.
			ca.CrashMigrationAfterCopies(2)
			mig, err := ca.BeginAddNode(cluster.NewLocalMember(joinName, joinNode))
			if err != nil {
				migErr = fmt.Errorf("fanin: begin join on co-a: %w", err)
			} else if werr := mig.Wait(); werr == nil {
				migErr = fmt.Errorf("fanin: the injected driver crash never fired")
			}
			tf.aLive.Store(false)
			killedAt = t
			s.phase = 1
		}
		if tf.aLive.Load() {
			ca.Tick(t)
		}
		cb.Tick(t)
		if s.phase == 1 && cb.FanInStats().Resumes > 0 {
			stolenAt = t
			s.phase = 2
		}
		co := cb
		if tf.aLive.Load() {
			if probe++; probe%2 == 0 {
				co = ca
			}
		}
		s.probe(co, t)
	})
	if err != nil {
		return err
	}
	// The stolen run re-copies and commits in a background goroutine
	// (Tick never blocks on a copy), so give the drive a bounded window
	// to land — ticking the sim clock forward so lease renewals and the
	// commit gossip keep flowing — before asserting converged state.
	if cb.FanInStats().Resumes > 0 {
		deadline := time.Now().Add(30 * time.Second)
		for t := tEnd; time.Now().Before(deadline); t++ {
			ms := cb.MigrationStats()
			if !ms.Active && ms.Migrations >= 1 && cb.FanInStats().OpenRuns == 0 {
				break
			}
			cb.Tick(t)
			time.Sleep(2 * time.Millisecond)
		}
	}
	cb.ProbeDown()
	cb.WaitRepairs()

	// The acceptance assertions: the crash fired, the surviving front
	// stole the lease and committed the orphaned join, zero query
	// errors, identical logs, converged stores.
	if migErr != nil {
		return migErr
	}
	if killedAt < 0 {
		return fmt.Errorf("fanin: the trace ended before the scripted join at t=%.0f s", migT)
	}
	fst := cb.FanInStats()
	if fst.Steals < 1 || fst.Resumes < 1 || fst.OpenRuns != 0 {
		return fmt.Errorf("fanin: co-b never recovered the orphaned run (steals %d, resumes %d, open runs %d)",
			fst.Steals, fst.Resumes, fst.OpenRuns)
	}
	ms := cb.MigrationStats()
	if ms.Active || ms.Migrations != 1 {
		return fmt.Errorf("fanin: resumed join not committed on co-b (active %v, committed %d)", ms.Active, ms.Migrations)
	}
	if got := len(cb.Nodes()); got != s.cfg.nodes+1 {
		return fmt.Errorf("fanin: co-b serves %d members after the resumed join, want %d", got, s.cfg.nodes+1)
	}
	if qe := ca.QueryErrors() + cb.QueryErrors(); qe != 0 {
		return fmt.Errorf("fanin: %d query errors across the two fronts, want zero", qe)
	}
	if !wire.EqualLogs(ca.MembershipLog(), cb.MembershipLog()) {
		return fmt.Errorf("fanin: the membership logs diverged between the fronts")
	}
	if err := s.converged(cb, "drain"); err != nil {
		return err
	}
	onJoin := 0
	for i := range s.objs {
		for _, name := range cb.Owners(s.objs[i].ID) {
			if name != joinName {
				continue
			}
			onJoin++
			if !joinNode.Service().Contains(s.objs[i].ID) {
				return fmt.Errorf("fanin: %s routed to %s but the joined node does not hold it", s.objs[i].ID, joinName)
			}
		}
	}
	if onJoin == 0 {
		return fmt.Errorf("fanin: the resumed join moved no fleet objects onto %s", joinName)
	}

	fmt.Printf("# fanin: %d nodes, R=%d, fronts co-a+co-b; join %s begun on co-a at t=%.0f s and its driver killed mid-copy; co-b stole the lease (%.0f s tenure) and resumed at t=%.0f s, %.0f s trace\n",
		s.cfg.nodes, s.cfg.replicas, joinName, killedAt, leaseFor, stolenAt, tEnd)
	fmt.Printf("# %d objects now route to %s; converged bit-identical to the no-failure reference; zero query errors on both fronts\n",
		onJoin, joinName)
	if err := s.emitPhases(csv); err != nil {
		return err
	}

	ft := stats.NewTable("front", "log", "epoch", "appends", "applies", "rejects", "gossips",
		"acquired", "denied", "steals", "resumes", "hints fwd")
	for _, co := range []*cluster.Coordinator{ca, cb} {
		st := co.FanInStats()
		ft.AddRow(st.ID, st.LogLen, st.MaxEpoch, st.Appends, st.Applies, st.Rejects, st.Gossips,
			st.Acquired, st.Denied, st.Steals, st.Resumes, st.HintsForwarded)
	}
	if err := emit(ft, csv); err != nil {
		return err
	}

	if err := s.emitSummary(csv, res, wall,
		[]string{"migrations", "resumes", "records moved", "degraded queries", "read repairs"},
		ms.Migrations, ms.Resumes, ms.TotalRecordsMoved, cb.DegradedQueries(), cb.Repairs()); err != nil {
		return err
	}
	return emitHealthNodes(cb, csv)
}

// runChaos is the everything-at-once elasticity drill: under full
// ingest and query load a scripted ChaosPlan joins a new member, fires
// a 50% loss burst at one node, removes another through a live leave
// migration, kills a third (the self-healing membership must detect and
// demote it with no operator), spikes a fourth's latency, and finally
// reweights the survivors. Every membership change rides the
// incremental migration engine, so the run hard-asserts the
// zero-downtime contract: zero query errors, per-phase staleness within
// the u_s bound, routing-lock holds and Send stalls bounded, and a
// post-quiesce store bit-identical to a no-failure reference fed the
// same update stream.
func runChaos(cfg fleetConfig, csv bool) error {
	s, err := newScenario(cfg, drillRules{name: "chaos", minNodes: 4,
		nodesErr: "chaos needs at least four cluster nodes (it removes two mid-run)",
		defaultR: 2, r2Err: "chaos needs -replicas >= 2 (a lost R=1 partition cannot survive the kill)"},
		"steady", "join + loss burst", "churn (leave, kill, spike)", "reweighted tail")
	if err != nil {
		return err
	}
	coord, members, injectors, err := s.coordinator(true)
	if err != nil {
		return err
	}
	if err := s.genFleet(coord); err != nil {
		return err
	}
	tEnd := s.tEnd

	// Same sim-clock self-healing as the selfheal run; the deadline
	// outlasts the loss burst (a breaker flap must not demote the lossy
	// member) but lands the killed member's demotion well before the
	// final reweight.
	coord.EnableSelfHeal(cluster.SelfHealConfig{
		HeartbeatEvery: 1,
		SuspectAfter:   1,
		RecoverAfter:   2,
		DemoteAfter:    0.15 * tEnd,
	})

	// The member that joins mid-run.
	joinName, joinNode := s.joiner()
	joinMember, _ := cluster.NewFaultyMember(joinName, joinNode)

	// Membership actions begun by chaos events. The engine accepts one
	// run at a time, so each action retries on ErrMigrationBusy every
	// tick until its turn (exactly how the self-heal loops behave); the
	// handles are verified after quiesce.
	type action struct {
		name  string
		begin func() (*cluster.Migration, error)
	}
	type handle struct {
		name string
		mig  *cluster.Migration
	}
	var todo []action
	var migs []handle
	var actionErrs []error
	enqueue := func(name string, begin func() (*cluster.Migration, error)) {
		todo = append(todo, action{name: name, begin: begin})
	}
	pump := func() {
		for len(todo) > 0 {
			mig, err := todo[0].begin()
			if errors.Is(err, cluster.ErrMigrationBusy) || errors.Is(err, cluster.ErrMigrationHalted) {
				return // engine occupied; retry next tick
			}
			if err != nil {
				actionErrs = append(actionErrs, fmt.Errorf("%s: %w", todo[0].name, err))
			} else {
				migs = append(migs, handle{name: todo[0].name, mig: mig})
			}
			todo = todo[1:]
		}
	}

	plan := cluster.NewChaosPlan(
		cluster.ChaosEvent{At: 0.15 * tEnd, Name: "join " + joinName, Do: func() {
			enqueue("join "+joinName, func() (*cluster.Migration, error) {
				return coord.BeginAddNode(joinMember)
			})
		}},
		cluster.ChaosEvent{At: 0.30 * tEnd, Name: "loss burst " + members[2].Name, Do: func() {
			injectors[2].SetLossRate(0.5, s.cfg.seed)
		}},
		cluster.ChaosEvent{At: 0.38 * tEnd, Name: "loss burst ends", Do: func() {
			injectors[2].SetLossRate(0, 0)
		}},
		cluster.ChaosEvent{At: 0.45 * tEnd, Name: "leave " + members[0].Name, Do: func() {
			enqueue("leave "+members[0].Name, func() (*cluster.Migration, error) {
				return coord.BeginRemoveNode(members[0].Name)
			})
		}},
		cluster.ChaosEvent{At: 0.55 * tEnd, Name: "kill " + members[1].Name, Do: func() {
			injectors[1].Fail() // no operator call: self-heal must demote it
		}},
		cluster.ChaosEvent{At: 0.70 * tEnd, Name: "latency spike " + members[3].Name, Do: func() {
			injectors[3].SetLatency(50 * time.Microsecond)
		}},
		cluster.ChaosEvent{At: 0.80 * tEnd, Name: "latency spike ends", Do: func() {
			injectors[3].SetLatency(0)
		}},
		cluster.ChaosEvent{At: 0.82 * tEnd, Name: "reweight survivors", Do: func() {
			enqueue("reweight", func() (*cluster.Migration, error) {
				return coord.BeginReweight(cluster.BalancedWeights(cluster.DefaultVnodes, coord.MemberStats()))
			})
		}},
	)

	var maxSendNs atomic.Int64
	res, wall, err := s.run(timedTransport{tr: coord, maxNs: &maxSendNs}, coord, func(t float64) {
		plan.Advance(t) // faults first, so the same tick's detector sees them
		pump()
		coord.Tick(t)
		switch {
		case t >= 0.82*tEnd:
			s.phase = 3
		case t >= 0.45*tEnd:
			s.phase = 2
		case t >= 0.15*tEnd:
			s.phase = 1
		}
		s.probe(coord, t)
	})
	if err != nil {
		return err
	}

	// Quiesce: stop all injection (the demoted victim stays demoted —
	// this only silences the faults), let late-begun migrations finish,
	// drain hints, wait out repairs.
	for _, inj := range injectors {
		inj.Recover()
		inj.SetLossRate(0, 0)
		inj.SetLatency(0)
	}
	for i := 0; i < 1000 && len(todo) > 0; i++ {
		pump()
		time.Sleep(time.Millisecond)
	}
	if len(todo) > 0 {
		return fmt.Errorf("chaos: %d membership actions never started (engine busy to the end)", len(todo))
	}
	if len(actionErrs) > 0 {
		return errors.Join(actionErrs...)
	}
	for _, h := range migs {
		if err := h.mig.Wait(); err != nil {
			return fmt.Errorf("chaos: %s halted: %w", h.name, err)
		}
	}
	coord.ProbeDown()
	coord.WaitRepairs()

	// The acceptance assertions.
	if rem := plan.Remaining(); rem != 0 {
		return fmt.Errorf("chaos: %d scheduled events never fired", rem)
	}
	mig := coord.MigrationStats()
	if mig.Active {
		return fmt.Errorf("chaos: a migration is still active after quiesce (%s %s)", mig.Kind, mig.Target)
	}
	if qe := coord.QueryErrors(); qe != 0 {
		return fmt.Errorf("chaos: %d query errors under churn, want zero", qe)
	}
	heal := coord.SelfHealStats()
	if !slices.Contains(heal.Demoted, members[1].Name) {
		return fmt.Errorf("chaos: killed member %s was not auto-demoted (demoted %v)", members[1].Name, heal.Demoted)
	}
	names := coord.Nodes()
	if len(names) != s.cfg.nodes-1 {
		return fmt.Errorf("chaos: membership %v, want %d members after join %s, leave %s, demote %s",
			names, s.cfg.nodes-1, joinName, members[0].Name, members[1].Name)
	}
	for _, name := range names {
		if name == members[0].Name || name == members[1].Name {
			return fmt.Errorf("chaos: departed member %s still in the cluster %v", name, names)
		}
	}
	if joinNode.Service().Len() == 0 {
		return fmt.Errorf("chaos: joined member %s holds no replicas", joinName)
	}
	if mig.Migrations < 4 {
		return fmt.Errorf("chaos: %d committed migrations, want >= 4 (join, leave, demotion, reweight)", mig.Migrations)
	}
	if maxSwap := time.Duration(mig.MaxSwapNanos); maxSwap > 50*time.Millisecond {
		return fmt.Errorf("chaos: routing lock held %v during a migration swap; swaps must be O(1)", maxSwap)
	}
	if maxSend := time.Duration(maxSendNs.Load()); maxSend > 2*time.Second {
		return fmt.Errorf("chaos: slowest Send stalled %v; membership changes must not block ingest", maxSend)
	}
	for _, ps := range s.phases {
		if ps.staleMax > 100 {
			return fmt.Errorf("chaos: phase %q max staleness %.1f m exceeds the u_s=100 m bound", ps.name, ps.staleMax)
		}
	}
	if err := s.converged(coord, "quiesce"); err != nil {
		return err
	}

	fmt.Printf("# chaos: %d nodes -> %v, R=%d over %.0f s trace\n", s.cfg.nodes, names, s.cfg.replicas, tEnd)
	fmt.Printf("# events: %s\n", strings.Join(plan.Fired(), "; "))
	fmt.Printf("# zero query errors; converged bit-identical to the no-failure reference\n")
	fmt.Printf("# max routing-lock hold %.3f ms; slowest Send %.3f ms\n",
		float64(mig.MaxSwapNanos)/1e6, float64(maxSendNs.Load())/1e6)
	if err := s.emitPhases(csv); err != nil {
		return err
	}
	if err := s.emitSummary(csv, res, wall,
		[]string{"migrations", "records moved", "demotions", "degraded queries", "read repairs"},
		mig.Migrations, mig.TotalRecordsMoved, heal.Demotions,
		coord.DegradedQueries(), coord.Repairs()); err != nil {
		return err
	}
	return emitHealthNodes(coord, csv)
}

func run(exp string, opts experiments.Options, csv bool, svgPath string) error {
	figKinds := map[string]experiments.Kind{
		"fig7":  experiments.Freeway,
		"fig8":  experiments.InterUrban,
		"fig9":  experiments.City,
		"fig10": experiments.Walking,
	}
	switch exp {
	case "table1":
		rows, err := experiments.RunTable1(opts)
		if err != nil {
			return err
		}
		return emit(experiments.Table1Table(rows), csv)

	case "fig7", "fig8", "fig9", "fig10":
		fr, err := experiments.RunFigure(figKinds[exp], opts)
		if err != nil {
			return err
		}
		fmt.Printf("# %s: %v — updates per hour, absolute and relative to distance-based\n", exp, fr.Kind)
		if svgPath != "" {
			if err := writeFigureChart(fr, exp, svgPath); err != nil {
				return err
			}
			fmt.Println("wrote", svgPath)
		}
		return emit(fr.Table(), csv)

	case "fig3", "fig6":
		protocol := "linear-pred"
		if exp == "fig6" {
			protocol = "map-based"
		}
		trail, err := experiments.RunTrail(experiments.Freeway, opts, protocol, 600, 100)
		if err != nil {
			return err
		}
		fmt.Printf("# %s: %s on the first 10 min of the freeway trace at u_s=100 m: %d updates\n",
			exp, protocol, trail.Count)
		sc, err := experiments.Cached(experiments.Freeway, opts)
		if err != nil {
			return err
		}
		if svgPath != "" {
			f, err := os.Create(svgPath)
			if err != nil {
				return err
			}
			defer f.Close()
			scene := viz.Scene{
				Graph:   sc.Graph,
				Truth:   trail.Truth,
				Updates: trail.Updates,
				Title:   fmt.Sprintf("%s: %s, %d updates", exp, protocol, trail.Count),
			}
			if err := scene.WriteSVG(f); err != nil {
				return err
			}
			fmt.Println("wrote", svgPath)
		} else {
			fmt.Println(viz.RenderASCII(nil, trail.Truth, trail.Updates, 100, 30))
		}
		return nil

	case "headline":
		for _, kind := range experiments.Kinds() {
			fr, err := experiments.RunFigure(kind, opts)
			if err != nil {
				return err
			}
			h := experiments.ComputeHeadline(fr)
			fmt.Printf("%-18s linear-vs-distance %5.1f%%  map-vs-linear %5.1f%%  map-vs-distance %5.1f%%  ordering=%v\n",
				fr.Kind, h.MaxLinearVsDistance, h.MaxMapVsLinear, h.MaxMapVsDistance, h.OrderingHoldsEverywhere)
		}
		return nil

	case "ablate-prob":
		ar, err := experiments.AblationTurnProb(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-route":
		ar, err := experiments.AblationKnownRoute(experiments.Freeway, opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-wolfson":
		ar, err := experiments.AblationWolfson(opts)
		if err != nil {
			return err
		}
		if err := emit(ar.Table(), csv); err != nil {
			return err
		}
		fmt.Println("# mean server error vs ground truth [m]:")
		for _, name := range ar.Order {
			fmt.Printf("#   %-5s %v\n", name, ar.SeriesErr[name])
		}
		fmt.Println("# combined Wolfson cost per hour (C_u per message + C_d per m*s):")
		for _, name := range ar.Order {
			fmt.Printf("#   %-5s %v\n", name, ar.SeriesCost[name])
		}
		return nil
	case "ablate-um":
		ar, err := experiments.AblationMatchRadius(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "ablate-pred":
		ar, err := experiments.AblationPredictors(opts)
		if err != nil {
			return err
		}
		return emit(ar.Table(), csv)
	case "history":
		hr, err := experiments.RunHistoryLearning(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("trips", "learned-map [upd/h]", "cells")
		for i, k := range hr.Trips {
			tb.AddRow(k, hr.UpdatesPerH[i], hr.Coverage[i])
		}
		if err := emit(tb, csv); err != nil {
			return err
		}
		fmt.Printf("# true-map map-based DR: %.1f upd/h; linear DR (no map): %.1f upd/h\n",
			hr.TrueMap, hr.Linear)
		return nil
	case "bandwidth":
		rows, err := experiments.RunBandwidth(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("scenario", "protocol", "updates/h", "bytes/h", "% of naive 1 Hz")
		for _, r := range rows {
			tb.AddRow(r.Scenario, r.Protocol, r.UpdatesPerH, r.BytesPerH, r.PctOfNaive)
		}
		return emit(tb, csv)
	case "disconnect":
		dr, err := experiments.RunDisconnection(opts)
		if err != nil {
			return err
		}
		tb := stats.NewTable("policy", "updates", "mean err [m]", "max err [m]")
		for i, p := range dr.Policies {
			tb.AddRow(p, dr.Updates[i], dr.MeanErr[i], dr.MaxErr[i])
		}
		return emit(tb, csv)
	case "ablate-nsight":
		for _, kind := range experiments.Kinds() {
			ar, err := experiments.AblationSightings(kind, opts)
			if err != nil {
				return err
			}
			fmt.Printf("# %v\n", kind)
			if err := emit(ar.Table(), csv); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// writeFigureChart renders the absolute updates-per-hour plot (the left
// panel of the paper's Figs. 7-10) as an SVG line chart.
func writeFigureChart(fr *experiments.FigureResult, exp, path string) error {
	chart := viz.Chart{
		Title:  fmt.Sprintf("%s: %v", exp, fr.Kind),
		XLabel: "accuracy requested on sink, u_s [m]",
		YLabel: "no. of updates/h",
	}
	for pi, name := range fr.Protocols {
		s := viz.ChartSeries{Name: name}
		for _, row := range fr.Rows {
			s.X = append(s.X, row.US)
			s.Y = append(s.Y, row.UpdatesPerH[pi])
		}
		chart.Series = append(chart.Series, s)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return chart.WriteSVG(f)
}

func emit(tb *stats.Table, csv bool) error {
	if csv {
		return tb.WriteCSV(os.Stdout)
	}
	_, err := tb.WriteTo(os.Stdout)
	return err
}
