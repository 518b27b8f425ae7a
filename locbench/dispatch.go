package main

import (
	"time"

	"mapdr/internal/wire"
)

// dispatch drives the read-heavy mix closed-loop over one connection:
// the next query goes out as soon as the last one is answered, except
// that a background frame whose time has come on the simulation clock
// goes first. Queries read at the clock's current time. alt, set only
// for the traced run, alternates tracing per block. It returns the
// tally and the background frames acked, in order.
func (b *clusterBench) dispatch(frames []dueFrame, d time.Duration, alt *alternator) (*opStats, []dueFrame) {
	qs := newQuerySource(b.cfg.seed^0xd15, b.s.ids, b.bounds, 0.7, 0.2)
	st := &opStats{}
	var acked []dueFrame
	url := b.sys.front.url
	wc := b.client.wire(url)
	start := time.Now()
	deadline := start.Add(d)
	for now := start; now.Before(deadline); now = time.Now() {
		traced := alt.next()
		st.attempts++
		if len(frames) > 0 && !now.Before(start.Add(frames[0].due)) {
			fr := frames[0]
			frames = frames[1:]
			st.late = append(st.late, int64(now.Sub(start.Add(fr.due))))
			recs := b.s.bg[fr.idx].recs
			if err := b.client.send(wc, 0, recs); err != nil {
				st.fail(err)
				continue
			}
			st.acked(len(recs), time.Since(now))
			acked = append(acked, fr)
			continue
		}
		q := qs.next(dispatchStart + now.Sub(start).Seconds()*dispatchSpeed)
		st.queries++
		if _, err := b.client.do(url, q); err != nil {
			st.fail(err)
			st.sloMiss++
			continue
		}
		lat := time.Since(now)
		st.answered(q.op, lat)
		st.service(traced, lat)
	}
	alt.stop()
	return st, acked
}

func runDispatch(cfg runConfig) (*outcome, error) {
	b, err := newClusterBench(cfg, dispatchStart)
	if err != nil {
		return nil, err
	}
	defer b.close()
	d := time.Duration(cfg.seconds * float64(time.Second))
	var alt *alternator
	if cfg.trace {
		alt = &alternator{rec: b.rec}
	}
	idx0, rt0 := b.snapIndex(), readRuntime()
	start := time.Now()
	st, acked := b.dispatch(backgroundFrames(b.s, d), d, alt)
	elapsed := time.Since(start)
	rt1 := readRuntime()
	b.settle()
	var final [][]wire.Record
	for _, a := range acked {
		final = append(final, b.s.bg[a.idx].recs)
	}
	tEnd := dispatchStart + elapsed.Seconds()*dispatchSpeed
	if err := b.finish(st, elapsed, final, tEnd); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.clusterLayers(alt, idx0, rt0, rt1, st)
	}
	return b.o, nil
}
