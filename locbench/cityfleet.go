package main

import (
	"time"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/sim"
	"mapdr/internal/wire"
)

// queryWarmup is the simulated time before the first ride-along query:
// until then vehicles are still sending their first reports.
const queryWarmup = 10

// fleetTransport carries a fleet round's updates to the standalone
// server as one wire frame, timing it from POST to ack and keeping the
// latest acked record of every vehicle for the oracle.
type fleetTransport struct {
	wc     *wire.Client
	client *loadClient
	st     *opStats
	latest map[string]wire.Record
}

func (f *fleetTransport) Send(now float64, batch []wire.Record) error {
	if len(batch) == 0 {
		return nil
	}
	f.st.attempts++
	t0 := time.Now()
	if err := f.client.send(f.wc, now, batch); err != nil {
		f.st.fail(err)
		return nil // counted; the fleet goes on and the oracle check shows the gap
	}
	f.st.acked(len(batch), time.Since(t0))
	for _, r := range batch {
		f.latest[r.ID] = r
	}
	return nil
}

func (f *fleetTransport) Flush(float64) error { return nil }
func (f *fleetTransport) Stats() wire.Stats   { return f.wc.Stats() }

// fleetPass is one complete run of the fleet against a fresh server.
type fleetPass struct {
	setupS float64 // server start: map, store, registrations, listener
	runS   float64 // the fleet run
	wallS  float64 // the whole pass
	proto  protocol
	latest map[string]wire.Record // each vehicle's last acked record
	tEnd   float64
	traced bool
}

// cityFleet is the city-fleet workload's state across passes.
type cityFleet struct {
	cfg     runConfig
	fi      *fleetInput
	bounds  geo.Rect
	qs      *querySource
	rec     *recorder
	client  *loadClient
	workers int
	sys     *standalone
	// transport, when set, replaces HTTP ingest with the transport it
	// returns for the pass's store (nil: sim.Fleet's in-process
	// loopback). The self-tests compare the transports with it.
	transport func(*locserv.Service) wire.Transport
}

func newCityFleet(cfg runConfig) (*cityFleet, error) {
	g, err := cityGraph(cfg.seed)
	if err != nil {
		return nil, err
	}
	fi, err := genFleet(g, cfg.seed, cityFleetN, cityFleetRoute, cityConfig)
	if err != nil {
		return nil, err
	}
	c := &cityFleet{
		cfg:     cfg,
		fi:      fi,
		bounds:  g.Bounds(),
		qs:      newQuerySource(cfg.seed^0xc17, fi.ids, g.Bounds(), 0.7, 0.2),
		workers: 2,
	}
	if cfg.trace {
		c.rec = newRecorder()
		c.workers = 1 // one request in flight: the ledger is additive
	}
	c.client = newLoadClient(c.rec)
	return c, nil
}

func (c *cityFleet) close() {
	if c.sys != nil {
		c.sys.close()
		c.sys = nil
	}
	c.client.close()
}

// pass runs the whole fleet once: a fresh server (timed as set-up),
// fresh sources, every round's updates as one HTTP frame, every sample
// error-accounted with an in-process Position read, and one ride-along
// HTTP query per simulated second.
func (c *cityFleet) pass(st *opStats) (*fleetPass, error) {
	if c.sys != nil {
		c.sys.close()
		c.sys = nil
	}
	t0 := time.Now()
	sys, err := startStandalone(c.cfg.seed, c.fi, c.rec)
	if err != nil {
		return nil, err
	}
	c.sys = sys
	p := &fleetPass{setupS: time.Since(t0).Seconds(), traced: c.rec.active()}
	objs, err := c.fi.objects()
	if err != nil {
		return nil, err
	}
	ft := &fleetTransport{wc: c.client.wire(sys.srv.url), client: c.client, st: st, latest: map[string]wire.Record{}}
	fl := sim.Fleet{Service: sys.svc, Objects: objs, Workers: c.workers, Transport: ft}
	if c.transport != nil {
		fl.Transport = c.transport(sys.svc)
	}
	if c.rec != nil {
		fl.Query = readCounter{Querier: sys.svc, rec: c.rec}
	}
	fl.Tick = func(t float64) {
		p.tEnd = t
		if t < queryWarmup {
			return
		}
		q := c.qs.next(t)
		st.attempts++
		st.queries++
		t0 := time.Now()
		if _, err := c.client.do(sys.srv.url, q); err != nil {
			st.fail(err)
			return
		}
		st.answered(q.op, time.Since(t0))
	}
	t1 := time.Now()
	res, err := fl.Run()
	if err != nil {
		return nil, err
	}
	p.runS = time.Since(t1).Seconds()
	p.wallS = time.Since(t0).Seconds()
	p.proto = protocolOf(res, c.fi.objHours)
	p.latest = ft.latest
	return p, nil
}

func runCityFleet(cfg runConfig) (*outcome, error) {
	t0 := time.Now()
	c, err := newCityFleet(cfg)
	if err != nil {
		return nil, err
	}
	defer c.close()
	o := &outcome{metrics: map[string]float64{}}
	o.note("city-fleet: %d vehicles, %.1f object-hours, inputs %.2f s", len(c.fi.ids), c.fi.objHours, time.Since(t0).Seconds())
	heap0 := liveHeapMB()

	// Passes repeat until the time is up. A traced run alternates
	// untraced and traced passes, so both halves do the same work.
	st := &opStats{}
	var passes []*fleetPass
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	rt0 := readRuntime()
	for len(passes) < 1 || (cfg.trace && len(passes) < 2) || time.Now().Before(deadline) {
		c.rec.set(len(passes)%2 == 1)
		p, err := c.pass(st)
		c.rec.set(false)
		if err != nil {
			return nil, err
		}
		if len(passes) > 0 {
			passes[len(passes)-1].latest = nil // only the last pass is verified
		}
		passes = append(passes, p)
	}
	rt1 := readRuntime()
	heap := liveHeapMB() - heap0

	// Every pass must reproduce the paper's figures exactly.
	o.correct = true
	first := passes[0].proto
	for i, p := range passes {
		if p.proto != first {
			o.correct = false
			o.note("error: pass %d protocol figures %+v differ from pass 0 %+v", i, p.proto, first)
		}
	}

	// Oracle check of the last pass's final state.
	last := passes[len(passes)-1]
	og, err := cityGraph(cfg.seed)
	if err != nil {
		return nil, err
	}
	var final []wire.Record
	for _, id := range c.fi.ids {
		if r, ok := last.latest[string(id)]; ok {
			final = append(final, r)
		}
	}
	if final, err = roundTrip(final); err != nil {
		return nil, err
	}
	orc, err := newOracle(og, c.fi.ids, final)
	if err != nil {
		return nil, err
	}
	vs := verificationSet(cfg.seed, c.fi.ids, c.bounds, last.tEnd)
	vf, verrs := verify(c.client, c.sys.srv.url, orc, vs)
	st.attempts += int64(len(vs))
	st.failed += int64(vf)
	st.errs = append(st.errs, verrs...)
	o.attempted, o.failed = st.attempts, st.failed
	o.correct = o.correct && st.failed == 0
	o.note("verified %d answers against the scan oracle: %d failed", len(vs), vf)

	var setups, rates []float64
	var runS float64
	for _, p := range passes {
		setups = append(setups, p.setupS)
		rates = append(rates, float64(p.proto.samples)/p.runS)
		runS += p.runS
	}
	o.note("%d passes, %d samples each, %.3f s fleet time", len(passes), first.samples, runS)
	countNote(o, st)
	m := o.metrics
	m["setup_s"] = median(setups)
	m["heap_live_mb"] = heap
	m["samples_per_s"] = median(rates)
	m["updates_per_obj_h"] = first.updatesPerObjH()
	m["bytes_per_obj_h"] = first.bytesPerObjH()
	m["mean_err_m"] = first.meanErr
	m["ingest_updates_per_s"] = float64(st.records) / runS
	latencyMetrics(m, st)
	if cfg.trace {
		c.layers(o, passes, rt0, rt1)
	}
	return o, nil
}

// layers computes the traced run's per-layer metrics and ledger. The
// fleet's own time (sources, map matching, cursors) is what remains of
// the traced fleet runs outside the send and query spans and the
// per-sample reads; the ledger's residual is the traced passes' set-up.
func (c *cityFleet) layers(o *outcome, passes []*fleetPass, rt0, rt1 rtSnap) {
	m := o.metrics
	spans := c.rec.snapshot()
	tr := resolve(spans)
	var runTraced, runBase, wall float64
	var nTraced, nBase int
	for _, p := range passes {
		if p.traced {
			runTraced += p.runS
			wall += p.wallS
			nTraced++
		} else {
			runBase += p.runS
			nBase++
		}
	}
	m["trace.overhead_frac"] = (runTraced/float64(nTraced))/(runBase/float64(nBase)) - 1
	ledger := tr.ledger()
	var roots float64
	for _, s := range spans {
		if s.Parent < 0 {
			roots += float64(s.End-s.Start) / 1e9
		}
	}
	reads := float64(c.rec.readNs.Load()) / 1e9
	ledger["locserv"] += reads
	ledger["sim"] += runTraced - roots - reads
	m["sim.step_self_s"] = (runTraced - roots - reads) / float64(nTraced)
	proto := passes[0].proto
	m["core.updates_per_sample"] = proto.updatesPerSample()
	m["core.bytes_per_update"] = proto.bytesPerUpdate()
	commonLayers(m, tr)
	m["wire.ingest.bytes_per_record"] = c.client.bytesPerRecord()
	if n := c.rec.readN.Load(); n > 0 {
		// Position reads are the fleet's per-sample reads plus the
		// ride-along HTTP ones.
		cnt, dur, _ := tr.durStat(named("locserv.store.position"))
		m["locserv.query.position_us"] = (float64(c.rec.readNs.Load()) + float64(dur)) / float64(n+int64(cnt)) / 1e3
	}
	indexLayers(m, c.sys.svc.IndexStats(), c.sys.svc.UpdatesApplied())
	runtimeMetrics(m, rt0, rt1)
	ledgerMetrics(o, ledger, wall)
	writeTrace(o, c.cfg, spans)
}
