package main

import (
	"fmt"
	"os"
	"path/filepath"

	"mapdr/internal/locserv"
)

// commonLayers fills the span-derived per-layer metrics shared by all
// workloads.
func commonLayers(m map[string]float64, tr *spanTree) {
	_, enc := tr.selfStat(named("wire.ingest.send"))
	m["wire.ingest.encode_self_ms"] = enc / 1e6
	_, codec := tr.selfStat(func(s span) bool {
		return s.Name == "cluster.member.position" || s.Name == "cluster.member.nearest" || s.Name == "cluster.member.within"
	})
	m["wire.query.codec_self_us"] = codec / 1e3
	_, front := tr.selfStat(named("wire.http.front"))
	m["wire.http.front_rtt_self_us"] = front / 1e3
	_, member := tr.selfStat(named("wire.http.member"))
	m["wire.http.member_rtt_self_us"] = member / 1e3
	_, ing := tr.selfStat(named("cluster.http.updates"))
	m["cluster.ingest.self_us_per_frame"] = ing / 1e3
	_, _, sent := tr.durStat(named("wire.ingest.send"))
	_, _, routed := tr.durStat(named("cluster.member.deliver"))
	if sent > 0 {
		m["cluster.ingest.member_records_per_record"] = float64(routed) / float64(sent)
	}
	for _, op := range opNames {
		_, self := tr.selfStat(named("cluster.http." + op))
		m["cluster.query."+op+".self_us"] = self / 1e3
		m["cluster.query."+op+".member_calls"] = tr.childCount(named("cluster.http."+op), named("cluster.member."+op))
		if n, dur, _ := tr.durStat(named("locserv.store." + op)); n > 0 {
			m["locserv.query."+op+"_us"] = float64(dur) / float64(n) / 1e3
		}
	}
	_, hs := tr.selfStat(prefixed("locserv.http."))
	m["locserv.http.self_us"] = hs / 1e3
	if _, dur, recs := tr.durStat(named("locserv.store.deliver")); recs > 0 {
		m["locserv.apply.us_per_record"] = float64(dur) / float64(recs) / 1e3
	}
}

// indexLayers fills the live-index counter ratios.
func indexLayers(m map[string]float64, idx locserv.IndexStats, applied int64) {
	if q := idx.IndexedQueries + idx.ScanFallbacks; q > 0 {
		m["locserv.index.cells_visited_per_query"] = float64(idx.CellsVisited) / float64(q)
		m["locserv.index.scan_fallback_frac"] = float64(idx.ScanFallbacks) / float64(q)
	}
	if applied > 0 {
		m["locserv.index.cell_moves_per_update"] = float64(idx.CellMoves) / float64(applied)
	}
}

// writeTrace writes the spans to the output directory.
func writeTrace(o *outcome, cfg runConfig, spans []span) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		o.note("spans not written: %v", err)
		return
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		o.note("spans not written: %v", err)
		return
	}
	o.note("%d spans written to %s", len(spans), path)
}
