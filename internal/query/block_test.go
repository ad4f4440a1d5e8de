package query

import (
	"testing"

	"rjoin/internal/relation"
)

// chainQuery is the 3-way chain join the steady-state benchmark runs:
// select R.B, J.B from R,S,J where R.A=S.A and S.B=J.B.
func chainQuery() *Query {
	return &Query{
		ID:        "chain",
		Select:    []SelectItem{{Col: ColRef{"R", "B"}}, {Col: ColRef{"J", "B"}}},
		Relations: []string{"R", "S", "J"},
		Joins: []JoinCond{
			{ColRef{"R", "A"}, ColRef{"S", "A"}},
			{ColRef{"S", "B"}, ColRef{"J", "B"}},
		},
	}
}

func tup(s *relation.Schema, a, b int64) *relation.Tuple {
	return relation.MustTuple(s, relation.Int64(a), relation.Int64(b), relation.Int64(0))
}

// TestRewriteOneAllocation pins the rewrite block: every child shape of
// the 3-way chain — depth 0 triggered at either end or in the middle of
// the FROM list, and depth 1 — costs exactly one allocation.
func TestRewriteOneAllocation(t *testing.T) {
	q := chainQuery()
	q1, ok := Rewrite(q, tup(schemaR, 3, 5))
	if !ok {
		t.Fatal("R tuple failed to trigger")
	}
	cases := []struct {
		name   string
		parent *Query
		t      *relation.Tuple
	}{
		{"depth0/first", q, tup(schemaR, 3, 5)},
		{"depth0/middle", q, tup(schemaS, 3, 5)},
		{"depth0/last", q, tup(schemaJ, 3, 5)},
		{"depth1/S", q1, tup(schemaS, 3, 7)},
		{"depth1/J", q1, tup(schemaJ, 1, 7)},
	}
	for _, c := range cases {
		if _, ok := Rewrite(c.parent, c.t); !ok {
			t.Fatalf("%s: tuple failed to trigger", c.name)
		}
		if n := testing.AllocsPerRun(100, func() { Rewrite(c.parent, c.t) }); n != 1 {
			t.Errorf("%s: Rewrite made %v allocations, want exactly 1", c.name, n)
		}
	}
}

// TestRewriteSharesTrimmedSlices checks the copy-on-write rules the
// single allocation depends on: a FROM list or join list trimmed at an
// end is a capped subslice of the parent's, and the middle case copies.
func TestRewriteSharesTrimmedSlices(t *testing.T) {
	q := chainQuery()
	viaR, _ := Rewrite(q, tup(schemaR, 3, 5))
	if &viaR.Relations[0] != &q.Relations[1] || cap(viaR.Relations) != 2 {
		t.Fatal("trimming the first relation did not share the parent's FROM list")
	}
	if &viaR.Joins[0] != &q.Joins[1] || cap(viaR.Joins) != 1 {
		t.Fatal("the surviving join run is not shared with the parent")
	}
	viaJ, _ := Rewrite(q, tup(schemaJ, 3, 5))
	if &viaJ.Relations[0] != &q.Relations[0] || cap(viaJ.Relations) != 2 {
		t.Fatal("trimming the last relation did not share the parent's FROM list")
	}
	viaS, _ := Rewrite(q, tup(schemaS, 3, 5))
	if got := viaS.String(); got != "select R.B, J.B from R,J where 3=R.A and 5=J.B" {
		t.Fatalf("middle substitution rendered %q", got)
	}
	if &viaS.Relations[0] == &q.Relations[0] {
		t.Fatal("middle substitution aliased the parent's FROM list")
	}
}

// TestReleaseCloneOwnership: Clone never carries the block
// back-pointer, so releasing a clone of a pooled rewrite cannot hand
// the still-live parent's block to the next rewrite.
func TestReleaseCloneOwnership(t *testing.T) {
	q := chainQuery()
	parent, _ := Rewrite(q, tup(schemaR, 3, 5))
	want := parent.String()
	for i := 0; i < 8; i++ {
		Release(parent.Clone())
		// Same shape as parent: a recycled parent block would come back
		// here and be overwritten with other values.
		Rewrite(q, tup(schemaR, int64(100+i), int64(200+i)))
	}
	if got := parent.String(); got != want {
		t.Fatalf("parent changed after releasing its clones: %q, want %q", got, want)
	}
	// Releasing a real block recycles it without disturbing its parent.
	child, _ := Rewrite(parent, tup(schemaS, 3, 9))
	Release(child)
	if got := parent.String(); got != want {
		t.Fatalf("parent changed after releasing its child: %q, want %q", got, want)
	}
}

// TestAppendCandidatesZeroAlloc: enumerating into a warmed buffer — the
// placement path's per-node scratch — allocates nothing, implied
// selections included.
func TestAppendCandidatesZeroAlloc(t *testing.T) {
	q := chainQuery()
	q.Joins = append(q.Joins, JoinCond{ColRef{"S", "A"}, ColRef{"S", "C"}}) // S.A's class gains S.C
	q1, _ := Rewrite(q, tup(schemaR, 3, 5))
	buf := q1.AppendCandidates(nil)
	if len(buf) == 0 {
		t.Fatal("no candidates")
	}
	var implied bool
	for _, c := range buf {
		implied = implied || c.Col == (ColRef{"S", "C"}) && c.Level == ValueLevel
	}
	if !implied {
		t.Fatalf("implied selection S.C=3 missing from %v", buf)
	}
	if n := testing.AllocsPerRun(100, func() { buf = q1.AppendCandidates(buf[:0]) }); n != 0 {
		t.Fatalf("AppendCandidates into a warmed buffer made %v allocations, want 0", n)
	}
}
