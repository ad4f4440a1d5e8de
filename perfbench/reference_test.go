package main

import (
	"math/rand"
	"testing"

	"rjoin/internal/agg"
	"rjoin/internal/refeval"
	"rjoin/internal/relation"
)

// TestReferenceMatchesRefeval certifies the hash-join reference against
// the nested-loop evaluator of internal/refeval on small random
// streams: equal span and anchor bags for every query shape the
// workloads submit, over full and clipped publication ranges, and equal
// aggregate views for the group-by shape.
func TestReferenceMatchesRefeval(t *testing.T) {
	sqls := []string{
		pipelineSQL(5),
		pipelineSQL(9),
		"select R.B, S.B from R, S where R.A = S.A and S.B = 2 within 6 ticks",
		"select S.B, R.B from S, R where S.A = R.A within 6 ticks",
		"select S.B, count(*) from R, S where R.A = S.A group by S.B within 8 ticks tumbling",
		"select R.B, T.B from R, S, T where R.A = S.A and S.B = T.B within 8 ticks tumbling",
		"select R.A, S.B from R, S where R.A = S.A",
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := newRefStream()
		var all []*relation.Tuple
		for tick := int64(0); tick < 40; tick++ {
			for n := rng.Intn(4); n > 0; n-- {
				s, _ := catalog.Schema(relNames[rng.Intn(len(relNames))])
				tu, _ := relation.NewTuple(s, relation.Int64(rng.Int63n(4)), relation.Int64(rng.Int63n(4)))
				tu.PubTime, tu.PubSeq = tick, int64(len(all)+1)
				ref.add(tu)
				all = append(all, tu)
			}
		}
		for _, sql := range sqls {
			for _, rng := range [][2]int64{{0, 39}, {7, 30}} {
				q := mustParse(sql)
				q.InsertTime = rng[0]
				var in []*relation.Tuple
				for _, tu := range all {
					if tu.PubTime <= rng[1] {
						in = append(in, tu)
					}
				}
				span, clocks, err := ref.evaluate(q, rng[0], rng[1], modeSpan)
				if err != nil {
					t.Fatal(err)
				}
				anchor, _, _ := ref.evaluate(q, rng[0], rng[1], modeAnchor)
				if !refeval.EqualBags(toRows(span), refeval.EvaluateSpan(q, in)) {
					t.Fatalf("seed %d %q %v: span bag differs from refeval", seed, sql, rng)
				}
				if !refeval.EqualBags(toRows(anchor), refeval.EvaluateAnchor(q, in)) {
					t.Fatalf("seed %d %q %v: anchor bag differs from refeval", seed, sql, rng)
				}
				if agg.SpecOf(q) == nil {
					continue
				}
				wantRows, wantClocks := refeval.EvaluateSpanClocked(q, in)
				got := agg.Reference(q, span, clocks)
				want := agg.Reference(q, toValues(wantRows), wantClocks)
				if len(got) == 0 || len(got) != len(want) {
					t.Fatalf("seed %d %q: view has %d rows, refeval's %d", seed, sql, len(got), len(want))
				}
				for i := range want {
					if viewKey(got[i]) != viewKey(want[i]) {
						t.Fatalf("seed %d %q: view row %d differs", seed, sql, i)
					}
				}
			}
		}
	}
}

// TestBracketErrors pins the bag arithmetic of the gate.
func TestBracketErrors(t *testing.T) {
	got := bag{"a": 2, "b": 1, "x": 1}
	lower := bag{"a": 1, "b": 2, "c": 1}
	upper := bag{"a": 2, "b": 2, "c": 1, "d": 1}
	if m, x := bracketErrors(got, lower, upper); m != 2 || x != 1 {
		t.Fatalf("missing, extra = %d, %d; want 2, 1", m, x)
	}
}

// TestViewBracketErrors pins how the gate classifies aggregate view
// rows against the span and anchor folds.
func TestViewBracketErrors(t *testing.T) {
	s := agg.SpecOf(mustParse("select S.B, count(*) from R, S where R.A = S.A group by S.B within 64 ticks tumbling"))
	row := func(group string, epoch, b, n int64) agg.ViewRow {
		return agg.ViewRow{Group: group, Epoch: epoch, Row: []relation.Value{relation.Int64(b), relation.Int64(n)}}
	}
	lower := []agg.ViewRow{row("a", 1, 1, 3), row("b", 1, 2, 1), row("c", 1, 3, 2)}
	upper := []agg.ViewRow{row("a", 1, 1, 4), row("b", 1, 2, 2), row("c", 1, 3, 2), row("d", 1, 4, 1)}
	got := []agg.ViewRow{
		row("a", 1, 1, 4), // above the span fold, within the anchor fold: exact
		row("b", 1, 2, 0), // short of the span fold: missing
		row("d", 1, 4, 1), // only in the anchor fold: exact
		row("e", 1, 5, 1), // in neither fold: extra
	} // c is not delivered: missing
	if m, x := viewBracketErrors(s, got, lower, upper); m != 2 || x != 1 {
		t.Fatalf("missing, extra = %d, %d; want 2, 1", m, x)
	}
	if m, x := viewBracketErrors(s, []agg.ViewRow{row("a", 1, 1, 5), row("b", 1, 9, 1), row("c", 1, 3, 2)}, lower, upper); m != 0 || x != 2 {
		t.Fatalf("missing, extra = %d, %d; want 0, 2", m, x)
	}
}

func toRows(vals [][]relation.Value) []refeval.Row {
	out := make([]refeval.Row, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func toValues(rows []refeval.Row) [][]relation.Value {
	out := make([][]relation.Value, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}
