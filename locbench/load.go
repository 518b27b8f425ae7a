package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mapdr/internal/wire"
)

// loadClient is the generator's HTTP client: one process, at most two
// connections to the server under test.
type loadClient struct {
	tr  *http.Transport
	hc  *http.Client
	rec *recorder

	mu  sync.Mutex
	wcs []*wire.Client
}

func newLoadClient(rec *recorder) *loadClient {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	c := &loadClient{tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, rec: rec}
	// A nil recorder keeps the untraced client's round trips unwrapped.
	if rec != nil {
		c.hc = &http.Client{Transport: &tracedRT{rec: rec, base: tr, name: "wire.http.front"}, Timeout: 30 * time.Second}
	}
	return c
}

func (c *loadClient) close() { c.tr.CloseIdleConnections() }

// wire returns an ingest client posting to url over the generator's
// connections; its traffic counts toward bytesPerRecord.
func (c *loadClient) wire(url string) *wire.Client {
	wc := wire.NewClient(url, c.hc)
	c.mu.Lock()
	c.wcs = append(c.wcs, wc)
	c.mu.Unlock()
	return wc
}

// bytesPerRecord is the frame bytes sent per record, framing included.
func (c *loadClient) bytesPerRecord() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes, recs int64
	for _, wc := range c.wcs {
		st := wc.Stats()
		bytes += st.FrameBytes
		recs += st.Sent
	}
	if recs == 0 {
		return 0
	}
	return float64(bytes) / float64(recs)
}

// hit is one answer row of the JSON query API.
type hit struct {
	ID   string  `json:"id"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Dist float64 `json:"dist"`
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func queryURL(base string, q query) string {
	var b strings.Builder
	b.WriteString(base)
	switch q.op {
	case opPosition:
		b.WriteString("/position?id=")
		b.WriteString(string(q.id))
	case opNearest:
		fmt.Fprintf(&b, "/nearest?x=%s&y=%s&k=%d", fmtF(q.p.X), fmtF(q.p.Y), nearestK)
	case opWithin:
		fmt.Fprintf(&b, "/within?minx=%s&miny=%s&maxx=%s&maxy=%s",
			fmtF(q.rect.Min.X), fmtF(q.rect.Min.Y), fmtF(q.rect.Max.X), fmtF(q.rect.Max.Y))
	}
	b.WriteString("&t=")
	b.WriteString(fmtF(q.t))
	return b.String()
}

// do sends one query and decodes its answer; a non-2xx status is
// returned as an error.
func (c *loadClient) do(base string, q query) ([]hit, error) {
	root := c.rec.root("loadgen.query." + opNames[q.op])
	defer c.rec.end(root, 1)
	url := queryURL(base, q)
	resp, err := c.hc.Get(url)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if q.op == opPosition {
		var h hit
		if err := json.Unmarshal(body, &h); err != nil {
			return nil, err
		}
		return []hit{h}, nil
	}
	var hits []hit
	if err := json.Unmarshal(body, &hits); err != nil {
		return nil, err
	}
	return hits, nil
}

// send posts one update frame through a wire client and checks that
// the server accepted every record.
func (c *loadClient) send(wc *wire.Client, now float64, recs []wire.Record) error {
	root := c.rec.root("wire.ingest.send")
	applied, err := wc.SendCounted(now, recs)
	c.rec.end(root, int64(len(recs)))
	if err != nil {
		return err
	}
	if applied != len(recs) {
		return fmt.Errorf("ingest: %d of %d records applied", applied, len(recs))
	}
	return nil
}

// samples collects per-operation latencies in nanoseconds.
type samples []int64

// quantile returns the q-quantile by the nearest-rank rule.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	k := int(q*float64(len(c))+0.999999) - 1
	k = max(0, min(k, len(c)-1))
	return float64(c[k])
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

// opStats is one generator worker's tally; workers merge theirs at the
// end.
type opStats struct {
	lat       [numOps]samples // query latency
	ingest    samples         // frame latency, POST to ack
	late      samples         // background frames: send minus due time
	svc       samples         // latency from send, untraced (overhead baseline)
	svcTraced samples         // the same while tracing
	records   int64           // records acked
	attempts  int64
	failed    int64
	sloMiss   int64
	queries   int64
	errs      []string
}

// acked counts a frame of n records acked after lat.
func (o *opStats) acked(n int, lat time.Duration) {
	o.ingest = append(o.ingest, int64(lat))
	o.records += int64(n)
}

// answered counts a query answered after lat.
func (o *opStats) answered(op int, lat time.Duration) {
	o.lat[op] = append(o.lat[op], int64(lat))
	if lat > sloLimit {
		o.sloMiss++
	}
}

// service records an operation's latency from its send, split by
// whether it ran traced (the tracing-overhead comparison).
func (o *opStats) service(traced bool, lat time.Duration) {
	if traced {
		o.svcTraced = append(o.svcTraced, int64(lat))
	} else {
		o.svc = append(o.svc, int64(lat))
	}
}

func (o *opStats) fail(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *opStats) merge(p *opStats) {
	for i := range o.lat {
		o.lat[i] = append(o.lat[i], p.lat[i]...)
	}
	o.ingest = append(o.ingest, p.ingest...)
	o.late = append(o.late, p.late...)
	o.svc = append(o.svc, p.svc...)
	o.svcTraced = append(o.svcTraced, p.svcTraced...)
	o.records += p.records
	o.attempts += p.attempts
	o.failed += p.failed
	o.sloMiss += p.sloMiss
	o.queries += p.queries
	o.errs = append(o.errs, p.errs...)
}

func (o *opStats) allQueries() samples {
	var all samples
	for _, l := range o.lat {
		all = append(all, l...)
	}
	return all
}
