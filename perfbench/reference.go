package main

import (
	"fmt"
	"sort"
	"strings"

	"rjoin/internal/query"
	"rjoin/internal/relation"
)

// refStream is the benchmark's record of every tuple it published, in
// publication order, indexed for the windowed hash-join reference. The
// nested-loop evaluator in internal/refeval is the specification; this
// index answers the same questions in time proportional to the output,
// which is what the benchmark's stream sizes need. reference_test.go
// certifies the two against each other.
type refStream struct {
	byRel map[string]*relStore
}

// relStore holds one relation's tuples sorted by publication time, plus
// a hash index per (attribute position, value) of positions into that
// slice (ascending, hence also time-sorted).
type relStore struct {
	tuples []*relation.Tuple
	index  []map[relation.Value][]int32
}

func newRefStream() *refStream { return &refStream{byRel: make(map[string]*relStore)} }

// add records one published tuple. Tuples must arrive in
// non-decreasing PubTime order (the benchmark publishes tick by tick).
func (s *refStream) add(t *relation.Tuple) {
	st := s.byRel[t.Relation()]
	if st == nil {
		st = &relStore{index: make([]map[relation.Value][]int32, len(t.Values))}
		for i := range st.index {
			st.index[i] = make(map[relation.Value][]int32)
		}
		s.byRel[t.Relation()] = st
	}
	pos := int32(len(st.tuples))
	st.tuples = append(st.tuples, t)
	for i, v := range t.Values {
		st.index[i][v] = append(st.index[i][v], pos)
	}
}

// bagMode selects the window semantics of an evaluation, after refeval:
// span (all member clocks within one window of each other) is the lower
// bound of what RJoin must deliver, anchor (some member within one
// window of every other) the upper bound of what it may deliver.
type bagMode uint8

const (
	modeSpan bagMode = iota
	modeAnchor
)

// bag is a multiset of answer rows keyed by rowKey.
type bag map[string]int

func (b bag) size() int64 {
	var n int64
	for _, c := range b {
		n += int64(c)
	}
	return n
}

// rowKey renders a row injectively (kind-tagged, length-prefixed
// strings), for bag comparison.
func rowKey(vals []relation.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		if v.Kind == relation.KindInt {
			fmt.Fprintf(&sb, "i%d;", v.Int)
		} else {
			fmt.Fprintf(&sb, "s%d:%s;", len(v.Str), v.Str)
		}
	}
	return sb.String()
}

// evaluate returns q's answer rows over the recorded tuples whose
// publication times lie in [lo, hi], under the given window semantics,
// with each row's completion clock (the maximum window clock over the
// combination — what aggregation assigns epochs by). It is the
// hash-join equivalent of refeval.EvaluateSpan/EvaluateAnchor restricted
// to that publication range; DISTINCT and one-time queries are not
// supported, nor are tuple-count windows (their clocks are not
// publication times).
func (s *refStream) evaluate(q *query.Query, lo, hi int64, mode bagMode) (rows [][]relation.Value, clocks []int64, err error) {
	if q.Distinct || q.OneTime || q.Window.Kind == query.WindowTuples {
		return nil, nil, fmt.Errorf("reference: DISTINCT, one-time and tuple-window queries are not supported")
	}
	order, err := joinOrder(q)
	if err != nil {
		return nil, nil, err
	}
	w := q.Window
	// limit bounds max−min+1 over a partial combination's clocks: the
	// window size under span semantics, 2W−1 under anchor semantics
	// (every member is within W of the anchor). Tumbling windows need
	// all clocks in one epoch, which the same prune plus the final
	// check enforces.
	limit := int64(1) << 62
	if w.Enabled() {
		limit = w.Size
		if mode == modeAnchor && !w.Tumbling {
			limit = 2*w.Size - 1
		}
	}
	n := len(q.Relations)
	combo := make(map[string]*relation.Tuple, n)
	cl := make([]int64, 0, n)
	var rec func(i int, mn, mx int64)
	rec = func(i int, mn, mx int64) {
		if i == n {
			if !windowHolds(w, cl, mode) {
				return
			}
			row := make([]relation.Value, len(q.Select))
			for j, it := range q.Select {
				if it.IsConst {
					row[j] = it.Const
					continue
				}
				row[j], _ = combo[it.Col.Rel].Value(it.Col.Attr)
			}
			rows = append(rows, row)
			clocks = append(clocks, mx)
			return
		}
		step := order[i]
		st := s.byRel[step.rel]
		if st == nil {
			return
		}
		// Admissible clock range for the next member.
		from, to := lo, hi
		if i > 0 {
			from = max(from, mx-limit+1)
			to = min(to, mn+limit-1)
		}
		visit := func(t *relation.Tuple) {
			c := w.Clock(t)
			if c < from || c > to || !memberOK(q, combo, t) {
				return
			}
			combo[step.rel] = t
			cl = append(cl, c)
			rec(i+1, min(mn, c), max(mx, c))
			cl = cl[:len(cl)-1]
			delete(combo, step.rel)
		}
		if step.probe == nil {
			// Unconnected relation (first in order): scan the time range.
			lo := sort.Search(len(st.tuples), func(k int) bool { return st.tuples[k].PubTime >= from })
			for k := lo; k < len(st.tuples) && st.tuples[k].PubTime <= to; k++ {
				visit(st.tuples[k])
			}
			return
		}
		v, _ := combo[step.probe.Rel].Value(step.probe.Attr)
		posns := st.index[step.attr][v]
		k := sort.Search(len(posns), func(k int) bool { return st.tuples[posns[k]].PubTime >= from })
		for ; k < len(posns) && st.tuples[posns[k]].PubTime <= to; k++ {
			visit(st.tuples[posns[k]])
		}
	}
	rec(0, 1<<62, -(1 << 62))
	return rows, clocks, nil
}

// joinStep is one relation of the evaluation order; probe, when set,
// names the bound column whose value selects candidates through the
// hash index on attribute position attr.
type joinStep struct {
	rel   string
	probe *query.ColRef
	attr  int
}

// joinOrder orders q's relations so that every relation after the
// first is reached through an equi-join with an already bound one.
func joinOrder(q *query.Query) ([]joinStep, error) {
	bound := map[string]bool{}
	var out []joinStep
	for len(out) < len(q.Relations) {
		picked := false
		for _, rel := range q.Relations {
			if bound[rel] {
				continue
			}
			if len(out) == 0 {
				out = append(out, joinStep{rel: rel})
				bound[rel] = true
				picked = true
				break
			}
			for _, j := range q.Joins {
				mine, other := j.Left, j.Right
				if mine.Rel != rel {
					mine, other = other, mine
				}
				if mine.Rel != rel || !bound[other.Rel] {
					continue
				}
				o := other
				out = append(out, joinStep{rel: rel, probe: &o, attr: attrPos(mine)})
				bound[rel] = true
				picked = true
				break
			}
			if picked {
				break
			}
		}
		if !picked {
			return nil, fmt.Errorf("reference: query %q is not a connected join", q.String())
		}
	}
	return out, nil
}

// attrPos resolves a column to its schema position through the
// package catalog.
func attrPos(c query.ColRef) int {
	s, _ := catalog.Schema(c.Rel)
	i, _ := s.AttrIndex(c.Attr)
	return i
}

// memberOK checks every selection on t's relation and every join
// conjunct that t completes against the bound members.
func memberOK(q *query.Query, combo map[string]*relation.Tuple, t *relation.Tuple) bool {
	rel := t.Relation()
	for _, sel := range q.Selections {
		if sel.Col.Rel == rel {
			if v, ok := t.Value(sel.Col.Attr); !ok || v != sel.Val {
				return false
			}
		}
	}
	for _, j := range q.Joins {
		var mine, other query.ColRef
		switch {
		case j.Left.Rel == rel:
			mine, other = j.Left, j.Right
		case j.Right.Rel == rel:
			mine, other = j.Right, j.Left
		default:
			continue
		}
		var ov relation.Value
		if other.Rel == rel {
			ov, _ = t.Value(other.Attr)
		} else if bt, ok := combo[other.Rel]; ok {
			ov, _ = bt.Value(other.Attr)
		} else {
			continue
		}
		if mv, _ := t.Value(mine.Attr); mv != ov {
			return false
		}
	}
	return true
}

// windowHolds is refeval's final window check over a complete
// combination's clocks.
func windowHolds(w query.WindowSpec, clocks []int64, mode bagMode) bool {
	if !w.Enabled() {
		return true
	}
	if w.Tumbling {
		for _, c := range clocks[1:] {
			if !w.Valid(clocks[0], c) {
				return false
			}
		}
		return true
	}
	if mode == modeSpan {
		mn, mx := clocks[0], clocks[0]
		for _, c := range clocks[1:] {
			mn, mx = min(mn, c), max(mx, c)
		}
		return mx-mn+1 <= w.Size
	}
	for _, a := range clocks {
		ok := true
		for _, c := range clocks {
			if !w.Valid(a, c) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// bagOf folds rows into a bag.
func bagOf(rows [][]relation.Value) bag {
	b := make(bag, len(rows))
	for _, r := range rows {
		b[rowKey(r)]++
	}
	return b
}

// bracketErrors counts the delivered rows outside the [lower, upper]
// bracket: rows the lower bound requires but got misses, plus rows got
// holds beyond what the upper bound allows.
func bracketErrors(got, lower, upper bag) (missing, extra int64) {
	for k, n := range lower {
		if d := n - got[k]; d > 0 {
			missing += int64(d)
		}
	}
	for k, n := range got {
		if d := n - upper[k]; d > 0 {
			extra += int64(d)
		}
	}
	return missing, extra
}
