package main

// Self-tests of the benchmark: seeded inputs, the exactness of the
// paper's figures, the correctness check, span bookkeeping, and the
// gate itself. Run them from this directory with `go test`; the gate
// test takes about a minute and is skipped with -short.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"

	"mapdr/internal/locserv"
	"mapdr/internal/sim"
	"mapdr/internal/tracegen"
	"mapdr/internal/wire"
)

// TestFleetOnEverySeed: the benchmark's fleet equals sim.GenerateFleet's
// where that succeeds, and seed 23's city, whose node 654 lost all its
// streets, still gets a full fleet (sim.GenerateFleet fails there).
func TestFleetOnEverySeed(t *testing.T) {
	for _, seed := range []int64{1, 23} {
		g, err := cityGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes() // every node is some vehicle's start
		fi, err := genFleet(g, seed, n, 500, cityConfig)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := sim.GenerateFleet(g, locserv.New(), sim.FleetSpec{
			N: n, Seed: seed, RouteLen: 500, Workers: 2,
			IDFormat: "car-%05d", Params: tracegen.CityCarParams(), Source: cityConfig,
		})
		if seed == 23 {
			if err == nil {
				t.Error("seed 23: sim.GenerateFleet succeeded; the test no longer covers an island start node")
			}
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: sim.GenerateFleet: %v", seed, err)
		}
		for i, o := range ref {
			if o.ID != fi.ids[i] || fmt.Sprint(o.Truth.Samples) != fmt.Sprint(fi.truth[i].Samples) {
				t.Fatalf("seed %d: vehicle %d differs from sim.GenerateFleet's", seed, i)
			}
		}
	}
}

// TestInputsSeeded: one seed always yields the same update stream,
// background-frame schedule and query sequence; another seed yields
// different ones.
func TestInputsSeeded(t *testing.T) {
	gen := func(seed int64) [32]byte {
		g, err := cityGraph(seed)
		if err != nil {
			t.Fatal(err)
		}
		s, err := recordStream(g, seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range s.rounds {
			buf, err := wire.EncodeFrame(r.recs)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(buf)
		}
		for _, f := range backgroundFrames(s, 20*time.Second) {
			fmt.Fprintln(h, f.due, f.idx)
		}
		qs := newQuerySource(seed^0xd15, s.ids, g.Bounds(), 0.7, 0.2)
		for i := 0; i < 1000; i++ {
			fmt.Fprintf(h, "%+v\n", qs.next(0))
		}
		var out [32]byte
		copy(out[:], h.Sum(nil))
		return out
	}
	a, b, c := gen(1), gen(1), gen(2)
	if a != b {
		t.Error("seed 1 gave two different input sets")
	}
	if a == c {
		t.Error("seeds 1 and 2 gave the same inputs")
	}
}

// cityPass runs one city-fleet pass with the given worker count and
// transport (nil: HTTP).
func cityPass(t *testing.T, c *cityFleet, workers int, tr func(*locserv.Service) wire.Transport) protocol {
	t.Helper()
	c.workers, c.transport = workers, tr
	p, err := c.pass(&opStats{})
	if err != nil {
		t.Fatal(err)
	}
	return p.proto
}

// TestCityFleetFiguresExact: the paper's figures of a city-fleet pass
// repeat bit for bit, and match an in-process delivery through the
// frame codec. The update stream — samples, updates, bytes — is the
// same for one worker and for sim.Fleet's plain loopback too. The mean
// error is not bit-identical in those two cases, because of the
// program, not the benchmark: sim.Fleet sums each worker's errors
// separately before adding them up, and the plain loopback hands the
// replicas float64 speed and heading where the codec carries float32.
// The test pins those differences below 1 mm.
func TestCityFleetFiguresExact(t *testing.T) {
	c, err := newCityFleet(runConfig{workload: "city-fleet", seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	http2 := cityPass(t, c, 2, nil)
	if again := cityPass(t, c, 2, nil); again != http2 {
		t.Errorf("second run: %+v, first %+v", again, http2)
	}
	one := cityPass(t, c, 1, nil)
	plain := cityPass(t, c, 2, func(*locserv.Service) wire.Transport { return nil })
	codec := cityPass(t, c, 2, func(svc *locserv.Service) wire.Transport {
		return wire.NewLoopback(wire.SinkFunc(func(b []wire.Record) error {
			rb, err := roundTrip(b)
			if err != nil {
				return err
			}
			_, err = svc.DeliverRecords(rb, nil)
			return err
		}))
	})
	if codec != http2 {
		t.Errorf("codec loopback: %+v, HTTP %+v", codec, http2)
	}
	for name, p := range map[string]protocol{"1 worker": one, "plain loopback": plain} {
		if p.samples != http2.samples || p.updates != http2.updates || p.bytes != http2.bytes {
			t.Errorf("%s: stream %+v differs from HTTP with 2 workers %+v", name, p, http2)
		}
		d := math.Abs(p.meanErr - http2.meanErr)
		if d != 0 {
			t.Logf("%s: mean error %v, HTTP with 2 workers %v (differs by %.3g m)", name, p.meanErr, http2.meanErr, d)
		}
		if d > 1e-3 {
			t.Errorf("%s: mean error %v, HTTP with 2 workers %v", name, p.meanErr, http2.meanErr)
		}
	}
}

// TestVerifyCatchesStaleAnswers: the correctness check fails when the
// oracle and the server disagree — here the oracle misses the pass's
// last updates.
func TestVerifyCatchesStaleAnswers(t *testing.T) {
	c, err := newCityFleet(runConfig{workload: "city-fleet", seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	p, err := c.pass(&opStats{})
	if err != nil {
		t.Fatal(err)
	}
	var final, stale []wire.Record
	for _, id := range c.fi.ids {
		r := p.latest[string(id)]
		final = append(final, r)
		// An older report: map predictions start from the link offset
		// and its time.
		r.Update.Report.T -= 5
		r.Update.Report.Offset = max(0, r.Update.Report.Offset-50)
		stale = append(stale, r)
	}
	vs := verificationSet(4, c.fi.ids, c.bounds, p.tEnd)
	for _, tc := range []struct {
		name string
		recs []wire.Record
		bad  bool
	}{{"same records", final, false}, {"stale records", stale, true}} {
		rt, err := roundTrip(tc.recs)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cityGraph(4)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := newOracle(g, c.fi.ids, rt)
		if err != nil {
			t.Fatal(err)
		}
		failed, errs := verify(c.client, c.sys.srv.url, orc, vs)
		if (failed > 0) != tc.bad {
			t.Errorf("%s: %d of %d answers failed (%v)", tc.name, failed, len(vs), errs)
		}
	}
}

// TestSpanTree: parentless member and store spans attach to their
// tightest containing candidate, self time subtracts the union of the
// children, and the ledger splits parallel children's common time.
func TestSpanTree(t *testing.T) {
	spans := []span{
		{Name: "loadgen.query.nearest", Start: 0, End: 100, Parent: -1},
		{Name: "wire.http.front", Start: 5, End: 95, Parent: 0},
		{Name: "cluster.http.nearest", Start: 10, End: 90, Parent: 1, Node: "front"},
		{Name: "cluster.member.nearest", Start: 20, End: 60, Parent: -1, Node: "n1"},
		{Name: "cluster.member.nearest", Start: 20, End: 80, Parent: -1, Node: "n2"},
		{Name: "wire.http.member", Start: 25, End: 55, Parent: -1, Node: "n1"},
		{Name: "locserv.http.query", Start: 30, End: 50, Parent: 5, Node: "n1"},
		{Name: "locserv.store.nearest", Start: 35, End: 45, Parent: -1, Node: "n1"},
		{Name: "cluster.tick", Start: 200, End: 210, Parent: -1},
		{Name: "cluster.member.stats", Start: 201, End: 209, Parent: -1, Node: "n1"},
	}
	tr := resolve(spans)
	for i, want := range []int{-1, 0, 1, 2, 2, 3, 5, 6, -1, 8} {
		if got := tr.spans[i].Parent; got != want {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Name, got, want)
		}
	}
	for i, want := range []int64{10, 10, 20, 10, 60, 10, 10, 10, 2, 8} {
		if got := tr.self[i]; got != want {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got, want)
		}
	}
	if tr.spans[7].Req != 0 || tr.spans[9].Req != 8 {
		t.Errorf("request ids %d, %d; want 0, 8", tr.spans[7].Req, tr.spans[9].Req)
	}
	// Wall 0-100 plus 200-210. From 20 to 60 the two member calls run
	// in parallel, so n1's subtree and n2's span halve each instant.
	l := tr.ledger()
	want := map[string]float64{
		"loadgen": 10,
		// front hop 10; n1's member call and member hop 10+10, halved;
		// n2 alongside 40, halved, then alone 20; the tick's stats call 8.
		"wire":    10 + (10+10)/2.0 + 40/2.0 + 20 + 8,
		"cluster": 20 + 2,
		"locserv": (10 + 10) / 2.0, // n1's handler and store, halved
	}
	for k, v := range want {
		if math.Abs(l[k]*1e9-v) > 1e-6 {
			t.Errorf("ledger %s = %v ns, want %v", k, l[k]*1e9, v)
		}
	}
	var sum float64
	for _, v := range l {
		sum += v * 1e9
	}
	if math.Abs(sum-110) > 1e-6 {
		t.Errorf("ledger sums to %v ns, want the 110 ns of root spans", sum)
	}
}

// TestGateCatchesMemberDelay injects a delay into every member query
// call: dispatch's nearest_p50_us must get worse by more than its bound
// (the benchmark's gate), and the traced ledger must put the added
// time on the wire layer (where member calls count), not on the store
// or the generator.
func TestGateCatchesMemberDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the dispatch workload four times")
	}
	const delay = time.Millisecond
	run := func(trace bool, d time.Duration) *outcome {
		o, err := runDispatch(runConfig{
			workload: "dispatch", seed: 5, seconds: 5, trace: trace,
			out: t.TempDir(), memberDelay: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct {
			t.Fatalf("run failed its correctness check: %v", o.notes)
		}
		return o
	}
	base, slow := run(false, 0), run(false, delay)
	const bound = 0.25 // nearest_p50_us in BENCHMARK.json
	b, s := base.metrics["nearest_p50_us"], slow.metrics["nearest_p50_us"]
	t.Logf("nearest_p50_us %.0f -> %.0f us (%+.0f%%)", b, s, 100*(s/b-1))
	if s < b*(1+bound) {
		t.Errorf("nearest_p50_us %.0f -> %.0f us with %v per member call: within the %.0f%% bound", b, s, delay, 100*bound)
	}
	tb, ts := run(true, 0), run(true, delay)
	per := func(o *outcome, layer string) float64 { return o.ledger[layer] / float64(o.traced) }
	added := per(ts, "wire") - per(tb, "wire") + per(ts, "cluster") - per(tb, "cluster")
	for _, layer := range []string{"wire", "cluster", "locserv", "loadgen"} {
		t.Logf("ledger %-8s %7.0f -> %7.0f us per traced query", layer, per(tb, layer)*1e6, per(ts, layer)*1e6)
	}
	if added < 0.7*delay.Seconds() || added > 2*delay.Seconds() {
		t.Errorf("ledger moved wire+cluster by %.0f us per query, want about %v", added*1e6, delay)
	}
	for _, layer := range []string{"locserv", "loadgen"} {
		if d := math.Abs(per(ts, layer) - per(tb, layer)); d > 0.25*added {
			t.Errorf("ledger moved %s by %.0f us per query, beside %.0f us on wire+cluster", layer, d*1e6, added*1e6)
		}
	}
}
