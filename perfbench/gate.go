package main

import (
	"fmt"

	"rjoin/internal/agg"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sqlparse"
)

// unsubGrace is how many ticks before an Unsubscribe a combination's
// tuples must all have been published for its row to be required: rows
// completing closer to the call may still be in flight when it drops
// them. Routing a row from its last tuple to the subscriber takes a
// few hops; on subscribe-churn no required row has been missed with
// this grace on any seed run.
const unsubGrace = 48

// gateResult is the outcome of the correctness gate over a pass.
type gateResult struct {
	refRows   int64 // rows the lower bound requires
	delivered int64
	missing   int64 // required rows not delivered
	extra     int64 // delivered rows beyond the upper bound
	unchecked int   // aggregate subscriptions dropped before any flush
	problems  []string
}

func (g gateResult) errorFrac() float64 {
	if g.refRows == 0 {
		return 0
	}
	return float64(g.missing+g.extra) / float64(g.refRows)
}

// check brackets every subscription's delivered rows between the span
// (lower) and anchor (upper) reference bags over the tuples published
// during its lifetime. Aggregate subscriptions compare their flushed
// view with the reference fold of the span rows; views only flush when
// the network drains, so an aggregate subscription dropped before the
// final drain has nothing to compare and is counted as unchecked.
func (p *pass) check() gateResult {
	var g gateResult
	end := p.net.Now()
	for _, r := range p.subs {
		q, err := sqlparse.Parse(r.sql, catalog)
		if err != nil {
			g.problems = append(g.problems, fmt.Sprintf("parse %q: %v", r.sql, err))
			continue
		}
		if agg.SpecOf(q) != nil {
			if r.end >= 0 {
				g.unchecked++
				continue
			}
			p.checkAgg(&g, r, q, end)
			continue
		}
		hi, need := end, end
		if r.end >= 0 {
			hi, need = r.end, r.end-unsubGrace
		}
		lowRows, _, err := p.ref.evaluate(q, r.insert, need, modeSpan)
		if err != nil {
			g.problems = append(g.problems, err.Error())
			continue
		}
		upRows, _, _ := p.ref.evaluate(q, r.insert, hi, modeAnchor)
		lower, upper := bagOf(lowRows), bagOf(upRows)
		if m, _ := bracketErrors(lower, lower, upper); m != 0 {
			g.problems = append(g.problems, fmt.Sprintf("reference bracket inverted for %q", r.sql))
		}
		got := make(bag, len(r.answers))
		for _, a := range r.answers {
			if len(a.Values) != len(q.Select) {
				g.problems = append(g.problems, fmt.Sprintf("row of arity %d for %q", len(a.Values), r.sql))
			}
			got[rowKey(a.Values)]++
		}
		m, x := bracketErrors(got, lower, upper)
		g.refRows += lower.size()
		g.delivered += int64(len(r.answers))
		g.missing += m
		g.extra += x
	}
	return g
}

// checkAgg brackets a live aggregate subscription's view, flushed by
// the final drain, between agg.Reference over the span rows (lower)
// and over the anchor rows (upper), counted in view rows.
func (p *pass) checkAgg(g *gateResult, r *subRec, q *query.Query, end int64) {
	rows, clocks, err := p.ref.evaluate(q, r.insert, end, modeSpan)
	if err != nil {
		g.problems = append(g.problems, err.Error())
		return
	}
	upRows, upClocks, _ := p.ref.evaluate(q, r.insert, end, modeAnchor)
	lower := agg.Reference(q, rows, clocks)
	got := p.net.Engine().AggRows(r.sub.ID)
	m, x := viewBracketErrors(agg.SpecOf(q), got, lower, agg.Reference(q, upRows, upClocks))
	g.refRows += int64(len(lower))
	g.delivered += int64(len(got))
	g.missing += m
	g.extra += x
}

// viewBracketErrors matches view rows by (group, epoch). A delivered
// row is inside the bracket when it equals the span fold's, or differs
// from the anchor fold's only in COUNT positions that lie between the
// two folds. A row inside the bracket but short of the span fold in a
// COUNT position has missed contributions — the aggregate form of a
// row below the span bound — and counts as missing, as does a span row
// with no delivered row. Any other delivered row lies beyond the upper
// bound: extra.
func viewBracketErrors(s *agg.Spec, got, lower, upper []agg.ViewRow) (missing, extra int64) {
	type key struct {
		group string
		epoch int64
	}
	lo := make(map[key][]relation.Value, len(lower))
	for _, v := range lower {
		lo[key{v.Group, v.Epoch}] = v.Row
	}
	up := make(map[key][]relation.Value, len(upper))
	for _, v := range upper {
		up[key{v.Group, v.Epoch}] = v.Row
	}
	seen := make(map[key]bool, len(got))
	for _, v := range got {
		k := key{v.Group, v.Epoch}
		seen[k] = true
		l := lo[k]
		if l != nil && rowKey(v.Row) == rowKey(l) {
			continue
		}
		switch in, short := countsWithin(s, v.Row, l, up[k]); {
		case !in:
			extra++
		case short:
			missing++
		}
	}
	for k := range lo {
		if !seen[k] {
			missing++
		}
	}
	return missing, extra
}

// countsWithin reports whether row equals the anchor fold u outside
// the COUNT positions and is at most u in each COUNT position, and
// whether it falls short of the span fold l (0 when the span has no
// row for the group) in any of them.
func countsWithin(s *agg.Spec, row, l, u []relation.Value) (in, short bool) {
	if u == nil || len(row) != len(u) || (l != nil && len(l) != len(u)) {
		return false, false
	}
	for i, v := range row {
		if s.Fns[i] != query.AggCount {
			if v != u[i] {
				return false, false
			}
			continue
		}
		if v.Kind != relation.KindInt || v.Int > u[i].Int {
			return false, false
		}
		var min int64
		if l != nil {
			min = l[i].Int
		}
		short = short || v.Int < min
	}
	return true, short
}

func viewKey(v agg.ViewRow) string {
	return fmt.Sprintf("%q/%d/", v.Group, v.Epoch) + rowKey(v.Row)
}

// bagDigest folds every subscription's delivered rows, with their
// delivery ticks, into one order-independent value: two passes of the
// same (workload, seed) must agree on it.
func (p *pass) bagDigest() uint64 {
	var d uint64
	for i, r := range p.subs {
		for _, a := range r.answers {
			d += fnv(fmt.Sprintf("%d|%d|%s", i, a.At, rowKey(a.Values)))
		}
		if agg.SpecOf(mustParse(r.sql)) != nil && r.end < 0 {
			for _, v := range p.net.Engine().AggRows(r.sub.ID) {
				d += fnv(fmt.Sprintf("%d|%s", i, viewKey(v)))
			}
		}
	}
	return d
}

func mustParse(sql string) *query.Query {
	q, err := sqlparse.Parse(sql, catalog)
	if err != nil {
		panic(err)
	}
	return q
}

func fnv(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
