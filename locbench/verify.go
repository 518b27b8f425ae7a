package main

import (
	"fmt"

	"mapdr/internal/core"
	"mapdr/internal/locserv"
	"mapdr/internal/roadmap"
	"mapdr/internal/wire"
)

// oracle is an in-process store fed the same final records as the
// system under test; it answers through the scan reference paths.
type oracle struct{ svc *locserv.Service }

func newOracle(g *roadmap.Graph, ids []locserv.ObjectID, batches ...[]wire.Record) (*oracle, error) {
	svc := locserv.NewSharded(locserv.DefaultShards)
	for _, id := range ids {
		if err := svc.Register(id, core.NewMapPredictor(g)); err != nil {
			return nil, err
		}
	}
	for _, b := range batches {
		if _, err := svc.DeliverRecords(b, nil); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return &oracle{svc: svc}, nil
}

func (o *oracle) answer(q query) []hit {
	var ps []locserv.ObjectPos
	switch q.op {
	case opPosition:
		p, ok := o.svc.Position(q.id, q.t)
		if !ok {
			return nil
		}
		return []hit{{ID: string(q.id), X: p.X, Y: p.Y}}
	case opNearest:
		ps = o.svc.ReferenceNearest(q.p, nearestK, q.t)
	case opWithin:
		ps = o.svc.ReferenceWithin(q.rect, q.t)
	}
	out := make([]hit, len(ps))
	for i, p := range ps {
		out[i] = hit{ID: string(p.ID), X: p.Pos.X, Y: p.Pos.Y}
		if q.op == opNearest {
			out[i].Dist = p.Dist
		}
	}
	return out
}

// verify sends the verification set through the HTTP API and compares
// every answer with the oracle's, bit for bit. It returns how many
// answers failed (non-2xx or different) and a few descriptions.
func verify(c *loadClient, base string, o *oracle, qs []query) (failed int, errs []string) {
	note := func(format string, a ...any) {
		failed++
		if len(errs) < 5 {
			errs = append(errs, fmt.Sprintf(format, a...))
		}
	}
	for _, q := range qs {
		got, err := c.do(base, q)
		if err != nil {
			note("verify %s: %v", opNames[q.op], err)
			continue
		}
		want := o.answer(q)
		if len(got) != len(want) {
			note("verify %s at t=%g: %d hits, oracle %d", opNames[q.op], q.t, len(got), len(want))
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				note("verify %s at t=%g: hit %d = %+v, oracle %+v", opNames[q.op], q.t, i, got[i], want[i])
				break
			}
		}
	}
	return failed, errs
}
