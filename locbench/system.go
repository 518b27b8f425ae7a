package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"mapdr/internal/cluster"
	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// The cluster shape and self-heal settings mirror cmd/locserver's
// defaults: R = 2 over four nodes, a 2 s heartbeat tick on wall time,
// demotion after 5 minutes down, a reweight check every minute at 4x
// skew held for 3 samples.
const (
	clusterNodes    = 4
	clusterReplicas = 2
	tickEvery       = 2 * time.Second
)

// server is one HTTP listener on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	host string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		host: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed after close
	}()
	return s, nil
}

// close shuts the server down and waits for its serve loop to end.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		s.srv.Close()
	}
	<-s.done
}

// standalone is the single-server role: one sharded store behind
// HandlerWithIngest, as `locserver` runs it.
type standalone struct {
	svc *locserv.Service
	srv *server
}

// startStandalone builds the server's map, registers the fleet and
// starts serving. A traced run serves the same routes built from the
// handler's parts over a timed store.
func startStandalone(seed int64, fi *fleetInput, rec *recorder) (*standalone, error) {
	g, err := cityGraph(seed)
	if err != nil {
		return nil, err
	}
	svc := locserv.NewSharded(locserv.DefaultShards)
	if err := fi.register(svc, g); err != nil {
		return nil, err
	}
	h := svc.HandlerWithIngest(nil)
	if rec != nil {
		mux := http.NewServeMux()
		locserv.RouteQueryAPI(mux, storeQuerier{svc: svc, rec: rec})
		mux.HandleFunc("POST /updates", locserv.IngestHandler(func(recs []wire.Record) (int, error) {
			i := rec.begin("locserv.store.deliver", "front", -1)
			n, err := svc.DeliverRecords(recs, nil)
			rec.end(i, int64(len(recs)))
			return n, err
		}))
		h = &tracedHandler{rec: rec, name: "locserv.http", node: "front", h: mux}
	}
	srv, err := serve(h)
	if err != nil {
		return nil, err
	}
	return &standalone{svc: svc, srv: srv}, nil
}

func (s *standalone) close() { s.srv.close() }

// clusterSys is the replicated cluster: four node servers and a
// coordinator front, every hop over loopback HTTP.
type clusterSys struct {
	nodes    []*locserv.NodeService
	nodeSrvs []*server
	coord    *cluster.Coordinator
	front    *server
	stop     chan struct{}
	tickDone chan struct{}
}

// startCluster starts the nodes and the coordinator. rec traces every
// hop; delay is injected into member query calls (gate self-test).
func startCluster(seed int64, rec *recorder, delay time.Duration) (*clusterSys, error) {
	cs := &clusterSys{stop: make(chan struct{}), tickDone: make(chan struct{})}
	hosts := map[string]string{}
	var members []*cluster.Member
	fail := func(err error) (*clusterSys, error) {
		for _, s := range cs.nodeSrvs {
			s.close()
		}
		return nil, err
	}
	for i := 0; i < clusterNodes; i++ {
		name := fmt.Sprintf("n%d", i+1)
		// Each node builds its own map, as separate locserver processes do.
		g, err := cityGraph(seed)
		if err != nil {
			return fail(err)
		}
		node := locserv.NewNodeService(locserv.NewSharded(locserv.DefaultShards), func(locserv.ObjectID) core.Predictor {
			return core.NewMapPredictor(g)
		})
		h := node.Handler()
		if rec != nil {
			sn := &storeNode{NodeService: node, rec: rec, name: name}
			mux := http.NewServeMux()
			mux.HandleFunc("POST /updates", locserv.IngestHandler(func(recs []wire.Record) (int, error) {
				return sn.Deliver(recs)
			}))
			mux.HandleFunc("POST /query", locserv.QueryProtocolHandler(sn))
			h = &tracedHandler{rec: rec, name: "locserv.http", node: name, h: mux}
		}
		srv, err := serve(h)
		if err != nil {
			return fail(err)
		}
		cs.nodes = append(cs.nodes, node)
		cs.nodeSrvs = append(cs.nodeSrvs, srv)
		hosts[srv.host] = name
	}
	var hc *http.Client // nil: http.DefaultClient, as locserver's members use
	if rec != nil {
		hc = &http.Client{Transport: &tracedRT{rec: rec, base: http.DefaultTransport, name: "wire.http.member", node: hosts}}
	}
	for i, srv := range cs.nodeSrvs {
		name := fmt.Sprintf("n%d", i+1)
		m := cluster.NewHTTPMember(name, srv.url, hc)
		if rec != nil || delay > 0 {
			m.Node = &memberNode{Node: m.Node, rec: rec, name: name, delay: delay}
		}
		members = append(members, m)
	}
	coord, err := cluster.NewReplicated(0, clusterReplicas, members...)
	if err != nil {
		return fail(err)
	}
	coord.EnableSelfHeal(cluster.SelfHealConfig{
		HeartbeatEvery: tickEvery.Seconds(),
		DemoteAfter:    300,
		ReweightEvery:  60,
		ReweightRatio:  4,
		ReweightAfter:  3,
	})
	cs.coord = coord
	var h http.Handler = cluster.Handler(coord)
	if rec != nil {
		h = &tracedHandler{rec: rec, name: "cluster.http", node: "front", h: h}
	}
	if cs.front, err = serve(h); err != nil {
		return fail(err)
	}
	start := time.Now()
	go func() {
		defer close(cs.tickDone)
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-cs.stop:
				return
			case <-t.C:
				i := rec.begin("cluster.tick", "", -1)
				coord.Tick(time.Since(start).Seconds())
				rec.end(i, 0)
			}
		}
	}()
	return cs, nil
}

// quiesce waits for background read repairs to land.
func (cs *clusterSys) quiesce() { cs.coord.WaitRepairs() }

func (cs *clusterSys) close() {
	close(cs.stop)
	<-cs.tickDone
	cs.coord.WaitRepairs()
	cs.front.close()
	for _, s := range cs.nodeSrvs {
		s.close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// indexStats sums the nodes' live-index counters plus applied updates.
func (cs *clusterSys) indexStats() (locserv.IndexStats, int64) {
	var st locserv.IndexStats
	var applied int64
	for _, n := range cs.nodes {
		addIndex(&st, n.Service().IndexStats())
		applied += n.Service().UpdatesApplied()
	}
	return st, applied
}

func addIndex(dst *locserv.IndexStats, s locserv.IndexStats) {
	dst.CellMoves += s.CellMoves
	dst.BoundRecomputes += s.BoundRecomputes
	dst.CellsVisited += s.CellsVisited
	dst.RingExpansions += s.RingExpansions
	dst.IndexedQueries += s.IndexedQueries
	dst.ScanFallbacks += s.ScanFallbacks
}

func subIndex(a, b locserv.IndexStats) locserv.IndexStats {
	return locserv.IndexStats{
		CellMoves:       a.CellMoves - b.CellMoves,
		BoundRecomputes: a.BoundRecomputes - b.BoundRecomputes,
		CellsVisited:    a.CellsVisited - b.CellsVisited,
		RingExpansions:  a.RingExpansions - b.RingExpansions,
		IndexedQueries:  a.IndexedQueries - b.IndexedQueries,
		ScanFallbacks:   a.ScanFallbacks - b.ScanFallbacks,
	}
}

// preload posts one record per vehicle to the coordinator: the loaded
// store the cluster workloads start from.
func preload(c *loadClient, url string, recs []wire.Record) error {
	wc := wire.NewClient(url, c.hc)
	for len(recs) > 0 {
		n := min(len(recs), preloadFrame)
		if err := c.send(wc, 0, recs[:n]); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		recs = recs[n:]
	}
	return nil
}

// memberSummary returns the max/min routed-records ratio across
// members, hinted records and member errors.
func memberSummary(coord *cluster.Coordinator) (skew float64, hints, errs int64) {
	var lo, hi int64 = -1, 0
	for _, m := range coord.MemberStats() {
		hints += m.Hints.Hinted
		errs += m.Errors
		if lo < 0 || m.Records < lo {
			lo = m.Records
		}
		hi = max(hi, m.Records)
	}
	if lo > 0 {
		skew = float64(hi) / float64(lo)
	}
	return skew, hints, errs
}
