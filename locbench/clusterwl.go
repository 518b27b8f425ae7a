package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// setupRepeats is how many times a cluster run brings the system up;
// setup_s is their median and the last one is measured.
const setupRepeats = 5

// clusterBench is the shared state of the two cluster workloads.
type clusterBench struct {
	cfg    runConfig
	s      *stream
	bounds geo.Rect
	rec    *recorder
	client *loadClient
	sys    *clusterSys
	heap0  float64
	base   []wire.Record // the preloaded store
	o      *outcome
}

// newClusterBench records the seed's update stream, then brings the
// cluster up setupRepeats times, keeping the last: start the servers,
// preload the stream's state at simulation time preloadAt.
func newClusterBench(cfg runConfig, preloadAt float64) (*clusterBench, error) {
	g, err := cityGraph(cfg.seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	s, err := recordStream(g, cfg.seed)
	if err != nil {
		return nil, err
	}
	b := &clusterBench{cfg: cfg, s: s, bounds: g.Bounds(), o: &outcome{metrics: map[string]float64{}}}
	b.o.note("%s: stream of %d records from %d vehicles in %d rounds (%.0f s), inputs %.2f s",
		cfg.workload, s.records, len(s.ids), len(s.rounds), s.period, time.Since(t0).Seconds())
	if cfg.trace {
		b.rec = newRecorder()
	}
	b.client = newLoadClient(b.rec)
	b.base = s.stateAt(preloadAt)
	b.heap0 = liveHeapMB()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each set-up starts from the same clean heap
		t0 := time.Now()
		sys, err := startCluster(cfg.seed, b.rec, cfg.memberDelay)
		if err != nil {
			b.client.close()
			return nil, err
		}
		if err := preload(b.client, sys.front.url, b.base); err != nil {
			sys.close()
			b.client.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			sys.close()
		}
		b.sys = sys
	}
	b.o.metrics["setup_s"] = median(setups)
	return b, nil
}

func (b *clusterBench) close() {
	b.sys.close()
	b.client.close()
}

// settle ends the timed phase: it waits for read repairs to land and
// measures the heap before the benchmark builds its oracle.
func (b *clusterBench) settle() {
	b.sys.quiesce()
	b.o.metrics["heap_live_mb"] = liveHeapMB() - b.heap0
}

// finish checks the verification set against an oracle fed the same
// final records and fills the remaining end-to-end metrics.
func (b *clusterBench) finish(st *opStats, elapsed time.Duration, final [][]wire.Record, tEnd float64) error {
	m := b.o.metrics
	og, err := cityGraph(b.cfg.seed)
	if err != nil {
		return err
	}
	orc, err := newOracle(og, b.s.ids, append([][]wire.Record{b.base}, final...)...)
	if err != nil {
		return err
	}
	vs := verificationSet(b.cfg.seed, b.s.ids, b.bounds, tEnd)
	vf, verrs := verify(b.client, b.sys.front.url, orc, vs)
	st.attempts += int64(len(vs))
	st.failed += int64(vf)
	st.errs = append(st.errs, verrs...)
	b.o.attempted, b.o.failed = st.attempts, st.failed
	b.o.correct = st.failed == 0
	b.o.note("verified %d answers against the scan oracle: %d failed", len(vs), vf)
	countNote(b.o, st)
	rate := float64(st.records) / elapsed.Seconds()
	m["ingest_updates_per_s"] = rate
	m["samples_per_s"] = rate / b.s.proto.updatesPerSample()
	m["updates_per_obj_h"] = b.s.proto.updatesPerObjH()
	m["bytes_per_obj_h"] = b.s.proto.bytesPerObjH()
	m["mean_err_m"] = b.s.proto.meanErr
	latencyMetrics(m, st)
	return nil
}

// clusterIndexSnap is the nodes' summed live-index counters and
// applied updates at one instant.
type clusterIndexSnap struct {
	stats   locserv.IndexStats
	applied int64
}

func (b *clusterBench) snapIndex() clusterIndexSnap {
	st, applied := b.sys.indexStats()
	return clusterIndexSnap{stats: st, applied: applied}
}

// clusterLayers fills the traced run's per-layer metrics: spans from
// the traced blocks, counters and runtime figures over the whole timed
// phase.
func (b *clusterBench) clusterLayers(alt *alternator, idx0 clusterIndexSnap, rt0, rt1 rtSnap, st *opStats) {
	m := b.o.metrics
	spans := b.rec.snapshot()
	tr := resolve(spans)
	commonLayers(m, tr)
	b.o.traced, _ = tr.selfStat(prefixed("loadgen.query."))
	m["wire.ingest.bytes_per_record"] = b.client.bytesPerRecord()
	m["core.updates_per_sample"] = b.s.proto.updatesPerSample()
	m["core.bytes_per_update"] = b.s.proto.bytesPerUpdate()
	m["trace.overhead_frac"] = st.svcTraced.mean()/st.svc.mean() - 1
	skew, hints, errs := memberSummary(b.sys.coord)
	m["cluster.member.records_max_over_min"] = skew
	m["cluster.hints"] = float64(hints)
	m["cluster.member_errors"] = float64(errs)
	idx := b.snapIndex()
	indexLayers(m, subIndex(idx.stats, idx0.stats), idx.applied-idx0.applied)
	m["loadgen.late_p99_ms"] = st.late.quantile(0.99) / 1e6
	runtimeMetrics(m, rt0, rt1)
	ledgerMetrics(b.o, tr.ledger(), alt.wall.Seconds())
	writeTrace(b.o, b.cfg, spans)
}

// replayWorker is one connection's position in the rush-hour stream:
// its frame order (one lane, or both merged) and how far it got.
type replayWorker struct {
	order []laneFrame
	pass  int // current pass (the preload is pass 0)
	pos   int // frames of order sent in this pass
	st    opStats
}

type laneFrame struct{ lane, idx int }

func laneOrder(s *stream, lanes ...int) []laneFrame {
	var out []laneFrame
	for _, l := range lanes {
		for i := range s.lanes[l] {
			out = append(out, laneFrame{l, i})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return s.lanes[out[i].lane][out[i].idx].t < s.lanes[out[j].lane][out[j].idx].t
	})
	return out
}

// replay runs the workers closed-loop until the deadline: each posts
// its next frame as fast as the coordinator acks it, then one
// ride-along query at the frame's simulation time. alt, set only for
// the single-connection traced run, alternates tracing per block.
func (b *clusterBench) replay(workers []*replayWorker, qs []*querySource, d time.Duration, alt *alternator) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	url := b.sys.front.url
	var wg sync.WaitGroup
	for w, rw := range workers {
		wg.Add(1)
		go func(rw *replayWorker, qs *querySource) {
			defer wg.Done()
			st := &rw.st
			wc := b.client.wire(url)
			var buf []wire.Record
			for time.Now().Before(deadline) {
				traced := alt.next()
				if rw.pos == len(rw.order) {
					rw.pass, rw.pos = rw.pass+1, 0
				}
				lf := rw.order[rw.pos]
				f := b.s.lanes[lf.lane][lf.idx]
				buf = b.s.shift(buf, f.recs, rw.pass)
				st.attempts++
				t0 := time.Now()
				if err := b.client.send(wc, 0, buf); err != nil {
					st.fail(err)
				} else {
					lat := time.Since(t0)
					st.acked(len(buf), lat)
					st.service(traced, lat)
				}
				rw.pos++
				q := qs.next(f.t + float64(rw.pass)*b.s.period)
				st.attempts++
				st.queries++
				t0 = time.Now()
				if _, err := b.client.do(url, q); err != nil {
					st.fail(err)
					st.sloMiss++
					continue
				}
				lat := time.Since(t0)
				st.answered(q.op, lat)
				st.service(traced, lat)
			}
		}(rw, qs[w])
	}
	wg.Wait()
	alt.stop()
	return time.Since(start)
}

// finalRecords returns, per lane, the last full pass and the partial
// current pass each worker sent, for the oracle, and the latest
// simulation time reached.
func (b *clusterBench) finalRecords(workers []*replayWorker) ([][]wire.Record, float64) {
	var out [][]wire.Record
	var tEnd float64
	for _, rw := range workers {
		sent := map[int]int{} // lane -> frames sent in the current pass
		lanes := map[int]bool{}
		for i, lf := range rw.order {
			lanes[lf.lane] = true
			if i < rw.pos {
				sent[lf.lane] = lf.idx + 1
			}
		}
		for l := range lanes {
			if rw.pass > 1 {
				for _, f := range b.s.lanes[l] {
					out = append(out, b.s.shift(nil, f.recs, rw.pass-1))
				}
				tEnd = max(tEnd, b.s.period*float64(rw.pass)-1)
			}
			for _, f := range b.s.lanes[l][:sent[l]] {
				out = append(out, b.s.shift(nil, f.recs, rw.pass))
				tEnd = max(tEnd, f.t+float64(rw.pass)*b.s.period)
			}
		}
	}
	return out, tEnd
}

func runRushHour(cfg runConfig) (*outcome, error) {
	b, err := newClusterBench(cfg, math.Inf(1))
	if err != nil {
		return nil, err
	}
	defer b.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	var workers []*replayWorker
	var qs []*querySource
	var alt *alternator
	if cfg.trace {
		// One connection replays both lanes.
		workers = []*replayWorker{{order: laneOrder(b.s, 0, 1), pass: 1}}
		alt = &alternator{rec: b.rec}
	} else {
		for l := 0; l < 2; l++ {
			workers = append(workers, &replayWorker{order: laneOrder(b.s, l), pass: 1})
		}
	}
	for i := range workers {
		qs = append(qs, newQuerySource(cfg.seed^int64(0x7a5+i), b.s.ids, b.bounds, 0.3, 0.5))
	}
	idx0, rt0 := b.snapIndex(), readRuntime()
	elapsed := b.replay(workers, qs, d, alt)
	rt1 := readRuntime()
	b.settle()
	st := &opStats{}
	for _, rw := range workers {
		st.merge(&rw.st)
	}
	final, tEnd := b.finalRecords(workers)
	if err := b.finish(st, elapsed, final, tEnd); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.clusterLayers(alt, idx0, rt0, rt1, st)
	}
	return b.o, nil
}
