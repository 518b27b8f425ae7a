package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// spanHeader carries the caller's span index from a client round trip
// to the server handler that answers it, so server spans attach to the
// request that caused them without any help from the program.
const spanHeader = "X-Locbench-Span"

// span is one timed call at a layer boundary. parent is the index of
// the span that caused it, or -1 while unknown: the coordinator offers
// no seam to carry an id to its member calls, so those are attached
// afterwards by time containment (see resolve).
type span struct {
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"` // member or server identity
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`         // index of the root span
	N      int64  `json:"n,omitempty"` // work units: records or hits
}

// recorder keeps the spans of a traced run in memory. A nil recorder is
// the untraced run: every wrapper checks for it and records nothing.
type recorder struct {
	epoch time.Time
	on    atomic.Bool  // spans are recorded only while on
	cur   atomic.Int64 // current client root span + 1 (one request in flight)

	mu    sync.Mutex
	spans []span

	// Hot in-process reads (the fleet's per-sample error accounting) are
	// too many to keep one span each; they are counted and timed in
	// aggregate instead.
	readN, readNs atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) active() bool { return r != nil && r.on.Load() }

// set turns recording on or off; a nil recorder stays off.
func (r *recorder) set(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index, or -1 when not recording.
func (r *recorder) begin(name, node string, parent int) int {
	if !r.active() {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Node: node, Start: t, End: -1, Parent: parent})
	i := len(r.spans) - 1
	r.mu.Unlock()
	return i
}

// end closes span i, adding n work units.
func (r *recorder) end(i int, n int64) {
	if i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.spans[i].N += n
	r.mu.Unlock()
}

// root opens a client root span and marks it as the request in flight.
func (r *recorder) root(name string) int {
	i := r.begin(name, "", -1)
	if i >= 0 {
		r.cur.Store(int64(i) + 1)
	}
	return i
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// traceBlock is how many operations run between tracing switches.
const traceBlock = 32

// alternator switches tracing on and off every traceBlock operations of
// a single-connection run, so the traced and the untraced operations
// see the same mix of work and their latencies give the tracing
// overhead. It sums the wall time of the traced blocks: the ledger's
// wall. A nil alternator never traces.
type alternator struct {
	rec   *recorder
	n     int
	since time.Time
	wall  time.Duration
}

// next is called before each operation and reports whether it is
// traced.
func (a *alternator) next() bool {
	if a == nil {
		return false
	}
	if a.n%traceBlock == 0 {
		now := time.Now()
		if a.rec.active() {
			a.wall += now.Sub(a.since)
		}
		a.rec.set(a.n/traceBlock%2 == 1)
		a.since = now
	}
	a.n++
	return a.rec.active()
}

// stop ends the last block.
func (a *alternator) stop() {
	if a == nil {
		return
	}
	if a.rec.active() {
		a.wall += time.Since(a.since)
	}
	a.rec.set(false)
}

// tracedRT times one HTTP hop from the caller's side. The span's parent
// comes from the request's span header, or else from the client root in
// flight; the header is then rewritten to this span, so the answering
// handler becomes its child.
type tracedRT struct {
	rec  *recorder
	base http.RoundTripper
	name string            // wire.http.front or wire.http.member
	node map[string]string // host:port -> member name
}

func (t *tracedRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.active() {
		return t.base.RoundTrip(req)
	}
	parent := -1
	if v := req.Header.Get(spanHeader); v != "" {
		parent, _ = strconv.Atoi(v)
	} else if t.name == "wire.http.front" {
		parent = int(t.rec.cur.Load()) - 1
	}
	i := t.rec.begin(t.name, t.node[req.URL.Host], parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(i))
	resp, err := t.base.RoundTrip(req)
	t.rec.end(i, 0)
	return resp, err
}

// tracedHandler times a server's handler; the span is named after the
// route (name + "." + last path element).
type tracedHandler struct {
	rec  *recorder
	name string
	node string
	h    http.Handler
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.rec.active() {
		t.h.ServeHTTP(w, r)
		return
	}
	parent := -1
	if v := r.Header.Get(spanHeader); v != "" {
		parent, _ = strconv.Atoi(v)
	}
	i := t.rec.begin(t.name+"."+strings.TrimPrefix(r.URL.Path, "/"), t.node, parent)
	t.h.ServeHTTP(w, r)
	t.rec.end(i, 0)
}

// memberNode wraps a coordinator member's Node: each call is a
// cluster.member.<op> span, and query calls can carry an injected delay
// (the gate self-test).
type memberNode struct {
	locserv.Node
	rec   *recorder
	name  string
	delay time.Duration
}

func (m *memberNode) Deliver(recs []wire.Record) (int, error) {
	i := m.rec.begin("cluster.member.deliver", m.name, -1)
	n, err := m.Node.Deliver(recs)
	m.rec.end(i, int64(len(recs)))
	return n, err
}

func (m *memberNode) Position(id locserv.ObjectID, t float64) (geo.Point, uint32, bool, error) {
	i := m.rec.begin("cluster.member.position", m.name, -1)
	m.sleep()
	p, seq, ok, err := m.Node.Position(id, t)
	m.rec.end(i, 1)
	return p, seq, ok, err
}

func (m *memberNode) Nearest(p geo.Point, k int, t float64) ([]locserv.ObjectPos, error) {
	i := m.rec.begin("cluster.member.nearest", m.name, -1)
	m.sleep()
	hits, err := m.Node.Nearest(p, k, t)
	m.rec.end(i, int64(len(hits)))
	return hits, err
}

func (m *memberNode) Within(r geo.Rect, t float64) ([]locserv.ObjectPos, error) {
	i := m.rec.begin("cluster.member.within", m.name, -1)
	m.sleep()
	hits, err := m.Node.Within(r, t)
	m.rec.end(i, int64(len(hits)))
	return hits, err
}

func (m *memberNode) NodeStats() (locserv.NodeStats, error) {
	i := m.rec.begin("cluster.member.stats", m.name, -1)
	st, err := m.Node.NodeStats()
	m.rec.end(i, 0)
	return st, err
}

func (m *memberNode) sleep() {
	if m.delay > 0 {
		time.Sleep(m.delay)
	}
}

// storeNode is the traced node's store: the NodeService with its
// ingest and query calls timed as locserv.store.<op> spans.
type storeNode struct {
	*locserv.NodeService
	rec  *recorder
	name string
}

func (s *storeNode) Deliver(recs []wire.Record) (int, error) {
	i := s.rec.begin("locserv.store.deliver", s.name, -1)
	n, err := s.NodeService.Deliver(recs)
	s.rec.end(i, int64(len(recs)))
	return n, err
}

func (s *storeNode) Position(id locserv.ObjectID, t float64) (geo.Point, uint32, bool, error) {
	i := s.rec.begin("locserv.store.position", s.name, -1)
	p, seq, ok, err := s.NodeService.Position(id, t)
	s.rec.end(i, 1)
	return p, seq, ok, err
}

func (s *storeNode) Nearest(p geo.Point, k int, t float64) ([]locserv.ObjectPos, error) {
	i := s.rec.begin("locserv.store.nearest", s.name, -1)
	hits, err := s.NodeService.Nearest(p, k, t)
	s.rec.end(i, int64(len(hits)))
	return hits, err
}

func (s *storeNode) Within(r geo.Rect, t float64) ([]locserv.ObjectPos, error) {
	i := s.rec.begin("locserv.store.within", s.name, -1)
	hits, err := s.NodeService.Within(r, t)
	s.rec.end(i, int64(len(hits)))
	return hits, err
}

// storeQuerier is the traced standalone store: its query API timed as
// locserv.store.<op> spans.
type storeQuerier struct {
	svc *locserv.Service
	rec *recorder
}

func (s storeQuerier) Position(id locserv.ObjectID, t float64) (geo.Point, bool) {
	i := s.rec.begin("locserv.store.position", "front", -1)
	p, ok := s.svc.Position(id, t)
	s.rec.end(i, 1)
	return p, ok
}

func (s storeQuerier) Nearest(p geo.Point, k int, t float64) []locserv.ObjectPos {
	i := s.rec.begin("locserv.store.nearest", "front", -1)
	hits := s.svc.Nearest(p, k, t)
	s.rec.end(i, int64(len(hits)))
	return hits
}

func (s storeQuerier) Within(r geo.Rect, t float64) []locserv.ObjectPos {
	i := s.rec.begin("locserv.store.within", "front", -1)
	hits := s.svc.Within(r, t)
	s.rec.end(i, int64(len(hits)))
	return hits
}

// readCounter is the fleet's error-accounting Querier in the traced
// run: per-sample Position reads timed in aggregate.
type readCounter struct {
	locserv.Querier
	rec *recorder
}

func (q readCounter) Position(id locserv.ObjectID, t float64) (geo.Point, bool) {
	if !q.rec.active() {
		return q.Querier.Position(id, t)
	}
	t0 := time.Now()
	p, ok := q.Querier.Position(id, t)
	q.rec.readNs.Add(int64(time.Since(t0)))
	q.rec.readN.Add(1)
	return p, ok
}

// layerOf maps a span name to the module whose work its self time is.
// A member call's self time is the coordinator-side codec and client
// work of the wire protocol; a round trip's is the HTTP stacks and the
// loopback network.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "loadgen."):
		return "loadgen"
	case strings.HasPrefix(name, "wire."), strings.HasPrefix(name, "cluster.member."):
		return "wire"
	case strings.HasPrefix(name, "cluster."):
		return "cluster"
	case strings.HasPrefix(name, "locserv."):
		return "locserv"
	}
	return "other"
}

// spanTree is a resolved span forest: parents attached, self times known.
type spanTree struct {
	spans    []span
	children [][]int
	self     []int64 // duration minus the union of the children
}

// parentClass names the spans a parentless span may be contained in.
func parentClass(name string) (prefix string, sameNode bool) {
	switch {
	case strings.HasPrefix(name, "cluster.member."):
		return "cluster.", false // cluster.http.* or cluster.tick
	case name == "wire.http.member":
		return "cluster.member.", true
	case strings.HasPrefix(name, "locserv.store."):
		return "locserv.http.", true
	}
	return "", false
}

// resolve attaches parentless spans to their tightest containing
// candidate, computes request ids and self times.
func resolve(spans []span) *spanTree {
	tr := &spanTree{spans: spans, children: make([][]int, len(spans)), self: make([]int64, len(spans))}
	// Candidate parents per class, sorted by start.
	byClass := map[string][]int{}
	classes := []string{"cluster.", "cluster.member.", "locserv.http."}
	for i, s := range spans {
		for _, c := range classes {
			if strings.HasPrefix(s.Name, c) && !(c == "cluster." && strings.HasPrefix(s.Name, "cluster.member.")) {
				byClass[c] = append(byClass[c], i)
			}
		}
	}
	for _, idx := range byClass {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 {
			continue
		}
		prefix, sameNode := parentClass(s.Name)
		cand := byClass[prefix]
		if cand == nil {
			continue
		}
		// Walk back from the last candidate starting before s; the first
		// that contains s is the tightest.
		k := sort.Search(len(cand), func(j int) bool { return spans[cand[j]].Start > s.Start }) - 1
		for steps := 0; k >= 0 && steps < 64; k, steps = k-1, steps+1 {
			c := spans[cand[k]]
			if c.End >= s.End && (!sameNode || c.Node == s.Node) && cand[k] != i {
				s.Parent = cand[k]
				break
			}
		}
	}
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			tr.children[s.Parent] = append(tr.children[s.Parent], i)
		}
	}
	for i := range spans {
		// Request id: the root of the span's tree.
		r := i
		for spans[r].Parent >= 0 && spans[r].Parent < len(spans) {
			r = spans[r].Parent
		}
		spans[i].Req = r
		tr.self[i] = (spans[i].End - spans[i].Start) - unionLen(spans, tr.children[i], spans[i].Start, spans[i].End)
	}
	return tr
}

// unionLen is the length of the union of the given spans' intervals,
// clipped to [lo, hi].
func unionLen(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// ledger splits the wall time covered by each root tree among layers:
// at every instant the active spans with no active child share it
// equally, so parallel member calls split their common time and a
// span's share equals its self time when it runs alone.
func (tr *spanTree) ledger() map[string]float64 {
	out := map[string]float64{}
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			continue
		}
		var tree []int
		var walk func(int)
		walk = func(j int) {
			tree = append(tree, j)
			for _, c := range tr.children[j] {
				walk(c)
			}
		}
		walk(i)
		if len(tree) == 1 {
			out[layerOf(s.Name)] += float64(s.End - s.Start)
			continue
		}
		bounds := make([]int64, 0, 2*len(tree))
		for _, j := range tree {
			bounds = append(bounds, tr.spans[j].Start, tr.spans[j].End)
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			if hi <= lo {
				continue
			}
			var leaves []string
			for _, j := range tree {
				sj := tr.spans[j]
				if sj.Start > lo || sj.End < hi {
					continue
				}
				leaf := true
				for _, c := range tr.children[j] {
					if sc := tr.spans[c]; sc.Start <= lo && sc.End >= hi {
						leaf = false
						break
					}
				}
				if leaf {
					leaves = append(leaves, layerOf(sj.Name))
				}
			}
			for _, l := range leaves {
				out[l] += float64(hi-lo) / float64(len(leaves))
			}
		}
	}
	for k := range out {
		out[k] /= 1e9
	}
	return out
}

// selfStat aggregates the self time of every span matching pred.
func (tr *spanTree) selfStat(pred func(s span) bool) (n int, meanNs float64) {
	var sum int64
	for i, s := range tr.spans {
		if pred(s) {
			n++
			sum += tr.self[i]
		}
	}
	if n > 0 {
		meanNs = float64(sum) / float64(n)
	}
	return n, meanNs
}

// durStat aggregates the duration and work units of every span
// matching pred.
func (tr *spanTree) durStat(pred func(s span) bool) (n int, durNs, units int64) {
	for _, s := range tr.spans {
		if pred(s) {
			n++
			durNs += s.End - s.Start
			units += s.N
		}
	}
	return n, durNs, units
}

// childCount returns the mean number of children matching child under
// the spans matching parent.
func (tr *spanTree) childCount(parent, child func(s span) bool) float64 {
	n, c := 0, 0
	for i, s := range tr.spans {
		if !parent(s) {
			continue
		}
		n++
		for _, j := range tr.children[i] {
			if child(tr.spans[j]) {
				c++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(c) / float64(n)
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

func prefixed(p string) func(span) bool {
	return func(s span) bool { return strings.HasPrefix(s.Name, p) }
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
