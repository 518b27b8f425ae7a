package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/mapgen"
	"mapdr/internal/roadmap"
	"mapdr/internal/sim"
	"mapdr/internal/trace"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// Input sizes. The seed picks the city and the fleet; the sizes are
// fixed so every seed is the same amount of work.
const (
	cityFleetN     = 3000   // city-fleet vehicles
	cityFleetRoute = 6000.0 // m of wandering per vehicle (~10 simulated minutes)
	rushFleetN     = 10000  // vehicles behind the recorded update stream
	rushFleetRoute = 3000.0 // m per vehicle
	rushUS         = 25.0   // m, the recorded stream's accuracy u_s
	laneFrameMax   = 512    // records per replayed rush-hour frame
	bgFrameMax     = 16     // records per background dispatch frame
	preloadFrame   = 1024   // records per preload frame
	nearestK       = 10
	withinSide     = 1000.0 // m, side of a /within box
)

// cityConfig is the paper's city movement case: u_s = 100 m, sensor
// uncertainty 5 m, 4 sightings for speed and heading.
var cityConfig = core.SourceConfig{US: 100, UP: 5, Sightings: 4}

// cityGraph builds the seed's road network, the way cmd/locserver
// builds its map at start-up.
func cityGraph(seed int64) (*roadmap.Graph, error) {
	c, err := mapgen.CityGrid(mapgen.DefaultCityConfig(seed))
	if err != nil {
		return nil, err
	}
	return c.Graph, nil
}

// fleetInput is a generated fleet: ground-truth traces of vehicles
// wandering the city, plus the source configuration they report with.
type fleetInput struct {
	g        *roadmap.Graph // the devices' map
	ids      []locserv.ObjectID
	truth    []*trace.Trace
	cfg      core.SourceConfig
	objHours float64 // summed trace durations, h
}

// genFleet drives n vehicles the way sim.GenerateFleet does — vehicle
// i wanders from node (37·i) mod nodes with route seed seed+i and drive
// seed seed+100+i — except that a start node without links moves on to
// the next node that has some. CityGrid drops streets at random and
// leaves such an island on about one seed in ten (23 and 30, say),
// where sim.GenerateFleet fails; on every other seed the fleets are
// identical.
func genFleet(g *roadmap.Graph, seed int64, n int, routeLen float64, cfg core.SourceConfig) (*fleetInput, error) {
	const workers = 2
	truth := make([]*trace.Trace, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				truth[i], errs[w] = driveVehicle(g, seed, i, routeLen)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("generating fleet: %w", err)
		}
	}
	fi := &fleetInput{g: g, cfg: cfg, truth: truth}
	for i, tr := range truth {
		fi.ids = append(fi.ids, locserv.ObjectID(fmt.Sprintf("car-%05d", i)))
		s := tr.Samples
		fi.objHours += (s[len(s)-1].T - s[0].T) / 3600
	}
	return fi, nil
}

// driveVehicle generates vehicle i's ground-truth trace.
func driveVehicle(g *roadmap.Graph, seed int64, i int, routeLen float64) (*trace.Trace, error) {
	nodes := g.NumNodes()
	start := (i * 37) % nodes
	for k := 0; len(g.Outgoing(roadmap.NodeID(start), roadmap.NoDir)) == 0; k++ {
		if k == nodes {
			return nil, fmt.Errorf("the map has no links")
		}
		start = (start + 1) % nodes
	}
	route, err := tracegen.Wander(g, seed+int64(i), roadmap.NodeID(start), routeLen, tracegen.DefaultWanderPolicy())
	if err != nil {
		return nil, err
	}
	res, err := tracegen.DriveRoute(g, route, tracegen.CityCarParams(), seed+int64(100+i))
	if err != nil {
		return nil, err
	}
	return res.Trace, nil
}

// objects returns the fleet with fresh protocol sources, ready for one
// sim.Fleet pass.
func (fi *fleetInput) objects() ([]sim.FleetObject, error) {
	objs := make([]sim.FleetObject, len(fi.ids))
	for i := range objs {
		src, err := core.NewMapSource(fi.cfg, core.NewMapPredictor(fi.g))
		if err != nil {
			return nil, err
		}
		objs[i] = sim.FleetObject{ID: fi.ids[i], Truth: fi.truth[i], Source: src}
	}
	return objs, nil
}

// register registers every vehicle on reg with a map predictor over g.
func (fi *fleetInput) register(reg locserv.Registry, g *roadmap.Graph) error {
	for _, id := range fi.ids {
		if err := reg.Register(id, core.NewMapPredictor(g)); err != nil {
			return err
		}
	}
	return nil
}

// protocol holds the paper's deterministic cost and accuracy figures
// of one fleet pass.
type protocol struct {
	samples  int
	updates  int64
	bytes    int64 // encoded record bytes sent
	meanErr  float64
	objHours float64
}

func protocolOf(res *sim.FleetResult, objHours float64) protocol {
	p := protocol{samples: res.Samples, bytes: res.Wire.BytesSent, meanErr: res.MeanErr, objHours: objHours}
	for _, n := range res.Updates {
		p.updates += n
	}
	return p
}

func (p protocol) updatesPerObjH() float64   { return float64(p.updates) / p.objHours }
func (p protocol) bytesPerObjH() float64     { return float64(p.bytes) / p.objHours }
func (p protocol) updatesPerSample() float64 { return float64(p.updates) / float64(p.samples) }
func (p protocol) bytesPerUpdate() float64   { return float64(p.bytes) / float64(p.updates) }

// frame is one batch of records sent as a single /updates request; t is
// the simulation time of the fleet round it came from.
type frame struct {
	t    float64
	recs []wire.Record
}

// stream is the update stream a 10k-vehicle fleet produced at u_s =
// 25 m, recorded once per seed and replayed in passes. Pass p shifts
// every record's Seq by p*seqStep and its time by p*period, so each
// pass is newer than the last and every record is applied.
type stream struct {
	ids     []locserv.ObjectID
	rounds  []frame       // records per fleet round, codec round-tripped
	lanes   [2][]frame    // per client connection, vehicles split by index parity
	bg      []frame       // rounds cut into small background frames
	latest  []wire.Record // each vehicle's last record: rush-hour's preloaded store
	records int
	period  float64
	seqStep uint32
	proto   protocol
}

// recTransport records every non-empty round the fleet sends.
type recTransport struct {
	*wire.Loopback
	rounds []frame
}

func (r *recTransport) Send(now float64, batch []wire.Record) error {
	if len(batch) > 0 {
		r.rounds = append(r.rounds, frame{t: now, recs: append([]wire.Record(nil), batch...)})
	}
	return r.Loopback.Send(now, batch)
}

// recordStream runs the fleet once in-process and keeps its updates.
func recordStream(g *roadmap.Graph, seed int64) (*stream, error) {
	fi, err := genFleet(g, seed, rushFleetN, rushFleetRoute, core.SourceConfig{US: rushUS, UP: 5, Sightings: 4})
	if err != nil {
		return nil, err
	}
	svc := locserv.New()
	if err := fi.register(svc, g); err != nil {
		return nil, err
	}
	objs, err := fi.objects()
	if err != nil {
		return nil, err
	}
	tr := &recTransport{Loopback: wire.NewLoopback(svc.Sink(nil))}
	res, err := (&sim.Fleet{Service: svc, Objects: objs, Workers: 2, Transport: tr}).Run()
	if err != nil {
		return nil, fmt.Errorf("recording stream: %w", err)
	}
	s := &stream{ids: fi.ids, proto: protocolOf(res, fi.objHours)}
	lane := make(map[string]int, len(fi.ids))
	for i, id := range fi.ids {
		lane[string(id)] = i % 2
	}
	// The stream keeps the rounds while every vehicle is still driving:
	// a vehicle whose trace ended would stop reporting and be
	// extrapolated ever further, and each replay pass restarts them all.
	s.period = math.Inf(1)
	for _, tr := range fi.truth {
		s.period = min(s.period, math.Floor(tr.Samples[tr.Len()-1].T))
	}
	var maxSeq uint32
	for _, r := range tr.rounds {
		if r.t >= s.period {
			break
		}
		recs, err := roundTrip(r.recs)
		if err != nil {
			return nil, err
		}
		s.rounds = append(s.rounds, frame{t: r.t, recs: recs})
		s.records += len(recs)
		var byLane [2][]wire.Record
		for _, rec := range recs {
			byLane[lane[rec.ID]] = append(byLane[lane[rec.ID]], rec)
			if rec.Update.Report.Seq > maxSeq {
				maxSeq = rec.Update.Report.Seq
			}
		}
		for l := range byLane {
			s.lanes[l] = appendChunks(s.lanes[l], r.t, byLane[l], laneFrameMax)
		}
		s.bg = appendChunks(s.bg, r.t, recs, bgFrameMax)
	}
	s.latest = s.stateAt(math.Inf(1))
	s.seqStep = maxSeq + 1
	return s, nil
}

// roundTrip passes records through the frame codec, so they carry
// exactly the values a server decodes (speed and heading travel as
// float32). The oracle and the system then see identical records.
func roundTrip(recs []wire.Record) ([]wire.Record, error) {
	var out []wire.Record
	for len(recs) > 0 {
		n := min(len(recs), 4096)
		buf, err := wire.EncodeFrame(recs[:n])
		if err != nil {
			return nil, err
		}
		dec, _, err := wire.DecodeFrame(buf)
		if err != nil {
			return nil, err
		}
		out = append(out, dec...)
		recs = recs[n:]
	}
	return out, nil
}

func appendChunks(dst []frame, t float64, recs []wire.Record, size int) []frame {
	for len(recs) > 0 {
		n := min(len(recs), size)
		dst = append(dst, frame{t: t, recs: recs[:n]})
		recs = recs[n:]
	}
	return dst
}

// shift copies src into dst as pass p of the stream.
func (s *stream) shift(dst, src []wire.Record, pass int) []wire.Record {
	dst = append(dst[:0], src...)
	for i := range dst {
		dst[i].Update.Report.Seq += uint32(pass) * s.seqStep
		dst[i].Update.Report.T += float64(pass) * s.period
	}
	return dst
}

// Query kinds.
const (
	opPosition = iota
	opNearest
	opWithin
	numOps
)

var opNames = [numOps]string{"position", "nearest", "within"}

// query is one API read. t is simulation time.
type query struct {
	op   int
	id   locserv.ObjectID
	p    geo.Point
	rect geo.Rect
	t    float64
}

// querySource draws seeded queries: position ids Zipf-skewed over a
// seeded permutation of the fleet, nearest points and 1 km boxes
// uniform over the city.
type querySource struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	ids    []locserv.ObjectID
	bounds geo.Rect
	mix    [numOps]float64 // cumulative shares
}

func newQuerySource(seed int64, ids []locserv.ObjectID, bounds geo.Rect, position, nearest float64) *querySource {
	rng := rand.New(rand.NewSource(seed))
	return &querySource{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(len(ids)-1)),
		perm:   rng.Perm(len(ids)),
		ids:    ids,
		bounds: bounds,
		mix:    [numOps]float64{position, position + nearest, 1},
	}
}

func (qs *querySource) next(t float64) query {
	u := qs.rng.Float64()
	op := opWithin
	switch {
	case u < qs.mix[opPosition]:
		op = opPosition
	case u < qs.mix[opNearest]:
		op = opNearest
	}
	return qs.make(op, t)
}

func (qs *querySource) make(op int, t float64) query {
	q := query{op: op, t: t}
	b := qs.bounds
	pt := geo.Pt(b.Min.X+qs.rng.Float64()*b.Width(), b.Min.Y+qs.rng.Float64()*b.Height())
	switch op {
	case opPosition:
		q.id = qs.ids[qs.perm[qs.zipf.Uint64()]]
	case opNearest:
		q.p = pt
	case opWithin:
		h := withinSide / 2
		q.rect = geo.Rect{Min: geo.Pt(pt.X-h, pt.Y-h), Max: geo.Pt(pt.X+h, pt.Y+h)}
	}
	return q
}

// verificationSet is the fixed query set checked against the oracle
// after the timed phase: every id's position at tEnd, plus seeded
// nearest and range queries at tEnd and 20 s later.
func verificationSet(seed int64, ids []locserv.ObjectID, bounds geo.Rect, tEnd float64) []query {
	qs := newQuerySource(seed^0x5eed, ids, bounds, 0, 0)
	var out []query
	for i, id := range ids {
		if i%10 == 0 {
			out = append(out, query{op: opPosition, id: id, t: tEnd})
		}
	}
	for _, t := range []float64{tEnd, tEnd + 20} {
		for i := 0; i < 40; i++ {
			out = append(out, qs.make(opNearest, t))
		}
		for i := 0; i < 20; i++ {
			out = append(out, qs.make(opWithin, t))
		}
		for i := 0; i < 50; i++ {
			out = append(out, qs.make(opPosition, t))
		}
	}
	return out
}

// The dispatch workload starts from the stream's state at
// dispatchStart simulated seconds and then runs the simulation clock at
// dispatchSpeed simulated seconds per wall second: background frames
// are due when the clock reaches their round, and every query reads at
// the clock's time, so answers are about as fresh as a live fleet's.
const (
	dispatchStart = 60.0
	dispatchSpeed = 5.0
)

// dueFrame is a background frame of the dispatch workload: s.bg[idx],
// due at an offset from the start of the timed phase.
type dueFrame struct {
	due time.Duration
	idx int
}

// backgroundFrames lays out the background frames after dispatchStart
// on the simulation clock, up to dur.
func backgroundFrames(s *stream, dur time.Duration) []dueFrame {
	var out []dueFrame
	for i, f := range s.bg {
		if f.t <= dispatchStart {
			continue
		}
		at := time.Duration((f.t - dispatchStart) / dispatchSpeed * float64(time.Second))
		if at >= dur {
			break
		}
		out = append(out, dueFrame{due: at, idx: i})
	}
	return out
}

// stateAt returns each vehicle's last record at or before simulation
// time t, in id order: the store the dispatch workload starts from.
func (s *stream) stateAt(t float64) []wire.Record {
	last := make(map[string]wire.Record, len(s.ids))
	for _, r := range s.rounds {
		if r.t > t {
			break
		}
		for _, rec := range r.recs {
			last[rec.ID] = rec
		}
	}
	out := make([]wire.Record, 0, len(last))
	for _, id := range s.ids {
		if rec, ok := last[string(id)]; ok {
			out = append(out, rec)
		}
	}
	return out
}
