package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/stats"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// The fixed probe queries of the cluster drills: the 10-NN point and
// the Within rectangle, both in the middle of the city grid.
var (
	probePoint = geo.Pt(5000, 5000)
	probeRect  = geo.Rect{Min: geo.Pt(2000, 2000), Max: geo.Pt(8000, 8000)}
)

// setDefaults rejects a scale outside (0,1] and defaults workers to
// all CPUs.
func (cfg *fleetConfig) setDefaults() error {
	if cfg.scale <= 0 || cfg.scale > 1 {
		return fmt.Errorf("scale must be in (0,1]")
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// cityFleetSpec is the fleet the fleet and cluster experiments drive:
// cfg.n city cars on routes of 15 km times the scale, reporting at
// u_s=100 m.
func cityFleetSpec(cfg fleetConfig) sim.FleetSpec {
	return sim.FleetSpec{
		N:        cfg.n,
		Seed:     cfg.seed,
		RouteLen: 15000 * cfg.scale,
		Workers:  cfg.workers,
		IDFormat: "car-%03d",
		Params:   tracegen.CityCarParams(),
		Source:   core.SourceConfig{US: 100, UP: 5, Sightings: 4},
	}
}

func totalUpdates(res *sim.FleetResult) int64 {
	var updates int64
	for _, n := range res.Updates {
		updates += n
	}
	return updates
}

// drillRules is a cluster drill's argument contract.
type drillRules struct {
	name     string // prefixes the drill's assertion errors
	minNodes int    // fewer members are rejected with nodesErr
	nodesErr string
	defaultR int    // R when -replicas is 0
	r2Err    string // when set, R<2 is rejected with it
}

// phaseStats is the probe accounting of one measurement window.
type phaseStats struct {
	name                      string
	queries, answered, staleN int
	staleSum, staleMax        float64
}

// scenario is the scaffolding the cluster drills share: the city
// graph, one map-predictor node process per member, the no-failure
// reference store fed the identical update stream, the fleet, and the
// probe accounting of the drill's phases.
type scenario struct {
	drillRules
	cfg    fleetConfig
	g      *roadmap.Graph
	nodes  []*locserv.NodeService
	ref    *locserv.Service
	objs   []sim.FleetObject
	tEnd   float64
	phases []phaseStats
	phase  int // index into phases the probes count towards
}

// newScenario checks cfg against the drill's rules, fills its defaults
// and builds the city and the node processes.
func newScenario(cfg fleetConfig, rules drillRules, phases ...string) (*scenario, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if cfg.nodes < rules.minNodes {
		return nil, errors.New(rules.nodesErr)
	}
	if cfg.replicas <= 0 {
		cfg.replicas = rules.defaultR
	}
	if rules.r2Err != "" && cfg.replicas < 2 {
		return nil, errors.New(rules.r2Err)
	}
	cor, err := mapgen.CityGrid(mapgen.DefaultCityConfig(cfg.seed))
	if err != nil {
		return nil, err
	}
	s := &scenario{drillRules: rules, cfg: cfg, g: cor.Graph, ref: locserv.NewSharded(cfg.shards)}
	for i := 0; i < cfg.nodes; i++ {
		s.nodes = append(s.nodes, s.newNode())
	}
	for _, name := range phases {
		s.phases = append(s.phases, phaseStats{name: name})
	}
	return s, nil
}

func (s *scenario) newNode() *locserv.NodeService {
	return locserv.NewNodeService(locserv.NewSharded(s.cfg.shards),
		func(locserv.ObjectID) core.Predictor { return core.NewMapPredictor(s.g) })
}

// joiner returns the name and node process of a member that joins
// mid-run.
func (s *scenario) joiner() (string, *locserv.NodeService) {
	return fmt.Sprintf("node-%02d", s.cfg.nodes), s.newNode()
}

// coordinator puts the node processes behind a new R-replicated
// coordinator, each through a fresh member handle named node-NN; with
// faulty set, each handle carries a fault injector. Two calls give two
// coordinator fronts over the same nodes.
func (s *scenario) coordinator(faulty bool) (*cluster.Coordinator, []*cluster.Member, []*cluster.FaultInjector, error) {
	members := make([]*cluster.Member, len(s.nodes))
	var injectors []*cluster.FaultInjector
	for i, node := range s.nodes {
		name := fmt.Sprintf("node-%02d", i)
		if faulty {
			var inj *cluster.FaultInjector
			members[i], inj = cluster.NewFaultyMember(name, node)
			injectors = append(injectors, inj)
		} else {
			members[i] = cluster.NewLocalMember(name, node)
		}
	}
	coord, err := cluster.NewReplicated(0, s.cfg.replicas, members...)
	return coord, members, injectors, err
}

// genFleet generates the fleet, registering every vehicle with reg and
// the reference store, and sets tEnd to the last sample time.
func (s *scenario) genFleet(reg locserv.Registry) error {
	objs, err := sim.GenerateFleet(s.g, multiRegistry{regs: []locserv.Registry{reg, s.ref}}, cityFleetSpec(s.cfg))
	if err != nil {
		return err
	}
	s.objs = objs
	for i := range objs {
		if last := objs[i].Truth.Samples[objs[i].Truth.Len()-1].T; last > s.tEnd {
			s.tEnd = last
		}
	}
	return nil
}

// run drives the fleet with every batch teed to tr and the reference
// store, its error accounting through q and tick once per simulated
// second, and returns the result with the wall time of the run.
func (s *scenario) run(tr wire.Transport, q locserv.Querier, tick func(t float64)) (*sim.FleetResult, time.Duration, error) {
	fl := sim.Fleet{
		Objects:   s.objs,
		Workers:   s.cfg.workers,
		Transport: teeTransport{main: tr, ref: wire.NewLoopback(s.ref.Sink(nil))},
		Query:     q,
		Tick:      tick,
	}
	startT := time.Now()
	res, err := fl.Run()
	return res, time.Since(startT), err
}

// probe is one tick's probe mix against co, counted in the current
// phase: a PositionE for every 16th vehicle with its staleness against
// the reference, one 10-NN and one Within.
func (s *scenario) probe(co *cluster.Coordinator, t float64) {
	ps := &s.phases[s.phase]
	count := func(err error) {
		ps.queries++
		if err == nil {
			ps.answered++
		}
	}
	stride := len(s.objs)/16 + 1
	for i := 0; i < len(s.objs); i += stride {
		p, ok, err := co.PositionE(s.objs[i].ID, t)
		count(err)
		if err != nil || !ok {
			continue
		}
		if rp, rok := s.ref.Position(s.objs[i].ID, t); rok {
			d := p.Dist(rp)
			ps.staleSum += d
			ps.staleN++
			if d > ps.staleMax {
				ps.staleMax = d
			}
		}
	}
	_, err := co.NearestE(probePoint, 10, t)
	count(err)
	_, err = co.WithinE(probeRect, t)
	count(err)
}

// converged checks co against the reference store at tEnd: every
// position, the 10-NN and the Within answer must be bit-identical.
// settle names the step before the check ("drain" or "quiesce").
func (s *scenario) converged(co *cluster.Coordinator, settle string) error {
	mismatches := 0
	for i := range s.objs {
		p, ok := co.Position(s.objs[i].ID, s.tEnd)
		rp, rok := s.ref.Position(s.objs[i].ID, s.tEnd)
		if ok != rok || p != rp {
			mismatches++
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%s: %d of %d positions diverged from the no-failure reference", s.name, mismatches, len(s.objs))
	}
	nearGot, _ := co.NearestE(probePoint, 10, s.tEnd)
	if !reflect.DeepEqual(nearGot, s.ref.Nearest(probePoint, 10, s.tEnd)) {
		return fmt.Errorf("%s: Nearest diverged from the no-failure reference after %s", s.name, settle)
	}
	withinGot, _ := co.WithinE(probeRect, s.tEnd)
	if !reflect.DeepEqual(withinGot, s.ref.Within(probeRect, s.tEnd)) {
		return fmt.Errorf("%s: Within diverged from the no-failure reference after %s", s.name, settle)
	}
	return nil
}

// emitPhases writes the per-phase availability and staleness table.
func (s *scenario) emitPhases(csv bool) error {
	tb := stats.NewTable("phase", "queries", "answered", "avail [%]", "mean stale [m]", "max stale [m]")
	for _, ps := range s.phases {
		avail, mean := 0.0, 0.0
		if ps.queries > 0 {
			avail = 100 * float64(ps.answered) / float64(ps.queries)
		}
		if ps.staleN > 0 {
			mean = ps.staleSum / float64(ps.staleN)
		}
		tb.AddRow(ps.name, ps.queries, ps.answered, avail, mean, ps.staleMax)
	}
	return emit(tb, csv)
}

// emitSummary writes the run's summary row: the fleet columns every
// drill reports, then the drill's own cols with their vals.
func (s *scenario) emitSummary(csv bool, res *sim.FleetResult, wall time.Duration, cols []string, vals ...any) error {
	tb := stats.NewTable(append([]string{"vehicles", "samples", "updates", "mean err [m]", "wall [ms]"}, cols...)...)
	tb.AddRow(append([]any{s.cfg.n, res.Samples, totalUpdates(res), res.MeanErr, wall.Milliseconds()}, vals...)...)
	return emit(tb, csv)
}

// emitHealthNodes writes co's per-member table with health and hint
// accounting.
func emitHealthNodes(co *cluster.Coordinator, csv bool) error {
	nt := stats.NewTable("node", "objects", "routed records", "errors", "health",
		"hinted", "drained", "requeued", "hints pending")
	for _, ms := range co.MemberStats() {
		nt.AddRow(ms.Name, ms.Node.Objects, ms.Records, ms.Errors, ms.Health.String(),
			ms.Hints.Hinted, ms.Hints.Drained, ms.Hints.Requeued, ms.Hints.Buffered)
	}
	return emit(nt, csv)
}

// multiRegistry registers fleet objects with both the cluster under
// test and the no-failure reference store.
type multiRegistry struct{ regs []locserv.Registry }

func (m multiRegistry) Register(id locserv.ObjectID, pred core.Predictor) error {
	for _, r := range m.regs {
		if err := r.Register(id, pred); err != nil {
			return err
		}
	}
	return nil
}

func (m multiRegistry) Deregister(id locserv.ObjectID) {
	for _, r := range m.regs {
		r.Deregister(id)
	}
}

// teeTransport delivers every update batch to the cluster under test
// and to the no-failure reference store, so the reference always holds
// what a healthy cluster would.
type teeTransport struct{ main, ref wire.Transport }

func (t teeTransport) Send(now float64, batch []wire.Record) error {
	if err := t.ref.Send(now, batch); err != nil {
		return err
	}
	return t.main.Send(now, batch)
}

func (t teeTransport) Flush(now float64) error {
	if err := t.ref.Flush(now); err != nil {
		return err
	}
	return t.main.Flush(now)
}

func (t teeTransport) Stats() wire.Stats { return t.main.Stats() }
