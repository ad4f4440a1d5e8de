package core

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"rjoin/internal/overlay"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
	"rjoin/internal/sqlparse"
)

// TestPiggybackOwnership: two placements made back to back in one
// handler keep independent piggy-backed RIC sets while both evals are
// in flight. Placement builds its known set in per-node scratch, so
// each evalMsg must own a copy — on a reliable network (pooled
// messages), on a lossy one (the sender retains every message for
// retransmission) and with attribute replicas (one message per
// replica key).
func TestPiggybackOwnership(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lossy    bool
		replicas int
	}{
		{"reliable", false, 0},
		{"lossy", true, 0},
		{"attr-replicas", false, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.AttrReplicas = tc.replicas
			netCfg := overlay.DefaultConfig()
			if tc.lossy {
				netCfg = lossyNetCfg(lossyPlan())
			}
			eng, nodes := testNet(t, 32, 5, cfg, netCfg)

			// Record every delivered eval's piggy-backed keys, then hand
			// the message on to the node's processor.
			got := map[string][]string{}
			for _, n := range nodes {
				p := eng.Proc(n)
				eng.Net().Attach(n, overlay.HandlerFunc(func(now sim.Time, msg overlay.Message) {
					if m, ok := msg.(*evalMsg); ok {
						var keys []string
						for _, info := range m.RIC {
							keys = append(keys, info.Key.String())
						}
						sort.Strings(keys)
						got[m.Q.ID] = append(got[m.Q.ID], strings.Join(keys, " "))
					}
					p.HandleMessage(now, msg)
				}))
			}

			// Both queries' candidates are fresh in the placing node's
			// candidate table, so each placement decides at once and
			// piggy-backs exactly its own candidates' reports.
			p := eng.Proc(nodes[0])
			q1 := sqlparse.MustParse("select R.B, S.B from R,S where R.A=S.A", testCat)
			q2 := sqlparse.MustParse("select J.B, M.B from J,M where J.C=M.C", testCat)
			q1.ID, q2.ID = "own1", "own2"
			for _, k := range []relation.Key{
				relation.AttrKeyOf("R", "A"), relation.AttrKeyOf("S", "A"),
				relation.AttrKeyOf("J", "C"), relation.AttrKeyOf("M", "C"),
			} {
				p.ctMerge(ricInfo{Key: k, Rate: 1, Addr: eng.Ring().Owner(k.ID()).ID(), At: 0})
			}
			p.place(0, q1)
			p.place(0, q2)
			p.replFlush()
			eng.Run()

			copies := max(1, tc.replicas)
			for qid, want := range map[string]string{"own1": "R+A S+A", "own2": "J+C M+C"} {
				if len(got[qid]) != copies {
					t.Fatalf("%s: %d evals delivered, want %d", qid, len(got[qid]), copies)
				}
				for _, keys := range got[qid] {
					if keys != want {
						t.Fatalf("%s carried piggy-backed reports for %q, want %q", qid, keys, want)
					}
				}
			}
		})
	}
}

// TestReplicatedBatchBufferedOutOfOrder: a replica-update batch the
// inbox buffers behind a gap is recycled only once applied. Batches
// are pooled with their Ops buffers, so recycling it on arrival would
// let the next batch overwrite the buffered operations before the gap
// fills.
func TestReplicatedBatchBufferedOutOfOrder(t *testing.T) {
	eng, nodes := testNet(t, 8, 3, replCfg(2), overlay.DefaultConfig())
	origin, replica := nodes[0].ID(), nodes[1].ID()
	rp := eng.Proc(nodes[1])
	batch := func(first int64, vals ...int64) *replUpdateMsg {
		var ops []replOp
		for _, v := range vals {
			ops = append(ops, replOp{kind: opAddTuple, key: relation.ValueKeyOf("R", "A", relation.Int64(v)), t: mkTuple("R", v, v, v)})
		}
		return newReplUpdateMsg(origin, replica, 1, first, ops)
	}
	rp.onReplUpdate(0, batch(1, 1))    // stream head: applied, recycled
	rp.onReplUpdate(0, batch(3, 3, 4)) // gap at 2: buffered
	rp.onReplUpdate(0, batch(5, 5))    // still behind the gap: buffered
	rp.onReplUpdate(0, batch(2, 2))    // fills the gap: releases 2, then 3–4, then 5
	mr := rp.replInboxes[origin].mirror
	for v := int64(1); v <= 5; v++ {
		list := mr.tuples[relation.ValueKeyOf("R", "A", relation.Int64(v))]
		if len(list) != 1 || list[0].Values[0].Int != v {
			t.Fatalf("mirror of R.A=%d holds %v, want the one tuple published with it", v, list)
		}
	}
	if n := rp.replInboxes[origin].in.Applied(); n != 5 {
		t.Fatalf("inbox applied %d operations, want 5", n)
	}
}

// TestPublishAllocPin pins the serial publish cascade with a warmed
// candidate table: one R tuple triggering 100 standing 2-way joins,
// whose rewrites are stored as one block each, published and drained.
func TestPublishAllocPin(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool puts")
	}
	eng, nodes := testNet(t, 128, 11, DefaultConfig(), overlay.DefaultConfig())
	for i := 0; i < 100; i++ {
		q := sqlparse.MustParse(fmt.Sprintf("select R.B, S.B from R,S where R.A=S.A within %d ticks", 1_000_000+i), testCat)
		if _, err := eng.SubmitQuery(nodes[i%len(nodes)], q); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	i := 0
	publish := func() {
		eng.PublishTuple(nodes[i%7], mkTuple("R", int64(i%50), int64(i), 0))
		eng.Run()
		i++
	}
	for i < 200 { // warm the candidate tables: every value key polled once
		publish()
	}
	// A collection empties the message pools mid-measurement; with the
	// collector off the count is a deterministic function of the run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const pin = 116
	n := testing.AllocsPerRun(400, publish)
	if n > pin {
		t.Fatalf("publish+drain of one tuple made %v allocations, pinned at %d", n, pin)
	}
	t.Logf("publish+drain of one tuple: %v allocations (pin %d)", n, pin)
}
