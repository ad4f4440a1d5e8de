package core

import (
	"fmt"
	"sort"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/obs"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/sim"
)

// This file implements runtime membership changes: graceful leave with
// state handover, abrupt crash with engine-level recovery, and runtime
// join with arc transfer. The policy deciding *when* nodes churn lives
// in internal/churn; the mechanics of moving RJoin state live here,
// next to the stores they drain and fill.

// handoverChunk bounds how many state entries ride in one handover
// message, so the traffic charged for a handover scales with the state
// moved rather than being a single flat message.
const handoverChunk = 48

// sortedStateKeys returns a map's keys ordered by their string form —
// the deterministic iteration order every handover is built in, so
// equal seeds replay identically regardless of map layout.
func sortedStateKeys[V any](m map[relation.Key]V) []relation.Key {
	keys := make([]relation.Key, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// sortedReqIDs is sortedStateKeys for the pending-placement table: the
// one deterministic iteration order shared by handover construction
// and crash recovery.
func sortedReqIDs(pending map[int64]*pendingPlacement) []int64 {
	reqIDs := make([]int64, 0, len(pending))
	for reqID := range pending {
		reqIDs = append(reqIDs, reqID)
	}
	sort.Slice(reqIDs, func(i, j int) bool { return reqIDs[i] < reqIDs[j] })
	return reqIDs
}

// handoverBuilder accumulates state entries into chunked messages.
type handoverBuilder struct {
	from, to id.ID
	msgs     []*handoverMsg
}

func (b *handoverBuilder) chunk() *handoverMsg {
	if n := len(b.msgs); n > 0 && b.msgs[n-1].entryCount() < handoverChunk {
		return b.msgs[n-1]
	}
	m := &handoverMsg{From: b.from, To: b.to}
	b.msgs = append(b.msgs, m)
	return m
}

// buildFullHandover drains every piece of a processor's state — stored
// queries (both levels), value-level tuples, ALTT entries, rate
// statistics, candidate-table entries and in-flight placements — into
// handover messages for the given recipient. The processor is left
// empty.
func buildFullHandover(p *Proc, to id.ID) []*handoverMsg {
	b := &handoverBuilder{from: p.node.ID(), to: to}
	for _, key := range sortedStateKeys(p.queries) {
		for _, sq := range p.queries[key] {
			c := b.chunk()
			c.Queries = append(c.Queries, sq)
		}
	}
	for _, key := range sortedStateKeys(p.tuples) {
		for _, t := range p.tuples[key] {
			c := b.chunk()
			c.Tuples = append(c.Tuples, handedTuple{Key: key, T: t})
		}
	}
	for _, key := range sortedStateKeys(p.altt) {
		for _, e := range p.altt[key] {
			c := b.chunk()
			c.ALTT = append(c.ALTT, handedALTT{Key: key, E: e})
		}
	}
	for _, key := range sortedStateKeys(p.stats) {
		c := b.chunk()
		c.Stats = append(c.Stats, handedStat{Key: key, S: *p.stats[key]})
	}
	for _, key := range sortedStateKeys(p.ct.entries) {
		e := p.ct.entries[key]
		c := b.chunk()
		c.CT = append(c.CT, ricInfo{Key: key, Rate: e.Rate, Addr: e.Addr, At: e.At})
	}
	for _, reqID := range sortedReqIDs(p.pending) {
		c := b.chunk()
		c.Pending = append(c.Pending, handedPending{ReqID: reqID, PP: p.pending[reqID]})
	}
	for _, key := range sortedStateKeys(p.aggs) {
		c := b.chunk()
		c.Aggs = append(c.Aggs, handedAgg{Key: key, G: p.aggs[key]})
	}
	p.queries = make(map[relation.Key][]storedQuery)
	p.tuples = make(map[relation.Key][]*relation.Tuple)
	p.altt = make(map[relation.Key][]alttEntry)
	p.aggs = make(map[relation.Key]*aggGroup)
	p.stats = make(map[relation.Key]*rateStat)
	p.ct = newCandidateTable()
	p.pending = make(map[int64]*pendingPlacement)
	return b.msgs
}

// buildArcHandover extracts from sp the stored state whose keys now
// belong to the freshly joined node n (ground truth after the join) and
// returns it as handover messages addressed to n. Candidate-table
// entries and pending placements stay: they are bound to sp itself, not
// to the keys it stores. Every moved key is dropped from sp's replica
// mirrors (it is no longer sp's to guarantee; n re-replicates it on
// arrival), keeping groups consistent as ownership moves.
func buildArcHandover(e *Engine, sp *Proc, n *chord.Node) []*handoverMsg {
	moved := func(key relation.Key) bool {
		o := e.ring.Owner(key.ID())
		return o != nil && o.ID() == n.ID()
	}
	dropped := make(map[relation.Key]bool)
	drop := func(key relation.Key) {
		if !dropped[key] {
			dropped[key] = true
			sp.replDropKey(key)
		}
	}
	b := &handoverBuilder{from: sp.node.ID(), to: n.ID()}
	for _, key := range sortedStateKeys(sp.queries) {
		if !moved(key) {
			continue
		}
		for _, sq := range sp.queries[key] {
			c := b.chunk()
			c.Queries = append(c.Queries, sq)
		}
		delete(sp.queries, key)
		drop(key)
	}
	for _, key := range sortedStateKeys(sp.tuples) {
		if !moved(key) {
			continue
		}
		for _, t := range sp.tuples[key] {
			c := b.chunk()
			c.Tuples = append(c.Tuples, handedTuple{Key: key, T: t})
		}
		delete(sp.tuples, key)
		drop(key)
	}
	for _, key := range sortedStateKeys(sp.altt) {
		if !moved(key) {
			continue
		}
		for _, en := range sp.altt[key] {
			c := b.chunk()
			c.ALTT = append(c.ALTT, handedALTT{Key: key, E: en})
		}
		delete(sp.altt, key)
		drop(key)
	}
	for _, key := range sortedStateKeys(sp.stats) {
		if !moved(key) {
			continue
		}
		c := b.chunk()
		c.Stats = append(c.Stats, handedStat{Key: key, S: *sp.stats[key]})
		delete(sp.stats, key)
	}
	for _, key := range sortedStateKeys(sp.aggs) {
		if !moved(key) {
			continue
		}
		c := b.chunk()
		c.Aggs = append(c.Aggs, handedAgg{Key: key, G: sp.aggs[key]})
		delete(sp.aggs, key)
		drop(key)
	}
	sp.replFlush()
	return b.msgs
}

// sendHandover ships prepared handover chunks as instantaneous
// transfers, charged under the churn traffic tag.
func (e *Engine) sendHandover(from *chord.Node, to id.ID, msgs []*handoverMsg) {
	e.net.WithTag(from, TagChurn, func() {
		for _, m := range msgs {
			if m.entryCount() == 0 {
				continue
			}
			e.Counters.HandoverMessages++
			e.Counters.HandoverEntries += int64(m.entryCount())
			if tr := e.trace; tr != nil {
				// Handover runs from churn-manager (coordinator) context.
				tr.Emit(sim.NoShard, obs.Event{
					At: int64(e.sim.Now()), Kind: obs.KindHandover,
					Node: uint64(from.ID()), Arg: int64(m.entryCount()),
				})
			}
			e.net.Transfer(from, to, m)
		}
	})
}

// onHandover merges transferred state into the local stores. Entries
// whose key this node does not own (the ring moved again while the
// handover was in flight, or a chunk was bounced past its intended
// recipient) are forwarded to their key's current owner, up to the
// rerouting budget.
func (p *Proc) onHandover(now sim.Time, m *handoverMsg) {
	e := p.eng
	var fwdKeys []relation.Key
	fwd := make(map[relation.Key]*handoverMsg)
	forward := func(key relation.Key) *handoverMsg {
		f, ok := fwd[key]
		if !ok {
			f = &handoverMsg{From: p.node.ID(), To: key.ID(), Hops: m.Hops + 1}
			fwd[key] = f
			fwdKeys = append(fwdKeys, key)
		}
		return f
	}
	canForward := m.Hops < maxReroutes
	// strayed reports an entry that reached a node that does not own
	// its key after the forwarding budget ran out (the ring changed
	// ownership repeatedly while the handover was in flight). Such an
	// entry is dropped and counted as lost exactly once — storing it
	// here would leave state no traffic can reach while exposing it to
	// double counting by a later crash of this node.
	strayed := func(key relation.Key) bool {
		return !canForward && !p.ownsKey(key)
	}

	for _, sq := range m.Queries {
		if p.eng.retiredPipeline(sq.q.ID) {
			continue // pipeline torn down while the handover was in flight
		}
		if !p.ownsKey(sq.key) {
			if canForward {
				f := forward(sq.key)
				f.Queries = append(f.Queries, sq)
			} else if sq.q.Depth == 0 {
				p.ctr.QueriesLost++
			} else {
				p.ctr.RewritesLost++
			}
			continue
		}
		p.addStored(sq) // handed-over state re-replicates at its new home
	}
	for _, h := range m.Tuples {
		if canForward && !p.ownsKey(h.Key) {
			f := forward(h.Key)
			f.Tuples = append(f.Tuples, h)
			continue
		}
		if strayed(h.Key) {
			p.ctr.TuplesLost++
			continue
		}
		p.tuples[h.Key] = append(p.tuples[h.Key], h.T)
		p.replTupleAdd(h.Key, h.T)
	}
	for _, h := range m.ALTT {
		if canForward && !p.ownsKey(h.Key) {
			f := forward(h.Key)
			f.ALTT = append(f.ALTT, h)
			continue
		}
		if strayed(h.Key) {
			p.ctr.TuplesLost++
			continue
		}
		p.insertALTT(h.Key, h.E)
		p.replALTTAdd(h.Key, h.E)
	}
	for _, h := range m.Stats {
		if canForward && !p.ownsKey(h.Key) {
			f := forward(h.Key)
			f.Stats = append(f.Stats, h)
			continue
		}
		if cur, ok := p.stats[h.Key]; ok {
			// Keep whichever estimate saw traffic more recently.
			if h.S.epoch > cur.epoch {
				*cur = h.S
			}
		} else {
			s := h.S
			p.stats[h.Key] = &s
		}
	}
	for _, info := range m.CT {
		p.ctMerge(info)
	}
	for _, h := range m.Pending {
		if p.eng.retiredPipeline(h.PP.q.ID) {
			continue // pipeline torn down while the handover was in flight
		}
		p.pending[h.ReqID] = h.PP
		p.replPendingAdd(h.ReqID, h.PP.q)
	}
	for _, h := range m.Aggs {
		if p.eng.retiredSub(h.G.qid) {
			continue // subscriber gone; its aggregator state is moot
		}
		if canForward && !p.ownsKey(h.Key) {
			f := forward(h.Key)
			f.Aggs = append(f.Aggs, h)
			continue
		}
		if strayed(h.Key) {
			p.ctr.AggStateLost += h.G.epochCount()
			continue
		}
		// Mirror the transferred delta before merging: mergeInto moves
		// the partial pointers into the destination group.
		p.replAggMerge(h.Key, h.G)
		if cur, ok := p.aggs[h.Key]; ok {
			// Partials for this group reached the new owner before the
			// handover landed: merge the transferred epochs in and mark
			// them dirty so the next flush re-emits their rows.
			h.G.mergeInto(p.eng.aggSpec(h.G.qid).Sliding(), cur)
		} else {
			p.aggs[h.Key] = h.G
		}
	}

	for _, key := range fwdKeys {
		f := fwd[key]
		p.ctr.MessagesRerouted++
		e.net.WithTag(p.node, TagChurn, func() {
			e.net.Send(p.node, key.ID(), f)
		})
	}
}

// insertALTT splices a transferred ALTT entry into the expiry-ordered
// list for its key, preserving the invariant alttScan relies on (the
// expired prefix is contiguous). Like every other handed-over state
// class, a moved entry is not a new admission: ALTTStored counted it
// when it first entered the network.
func (p *Proc) insertALTT(key relation.Key, e alttEntry) {
	list := p.altt[key]
	i := len(list)
	for i > 0 && list[i-1].expireAt > e.expireAt {
		i--
	}
	list = append(list, alttEntry{})
	copy(list[i+1:], list[i:])
	list[i] = e
	p.altt[key] = list
}

// JoinNode adds a node with the given identifier to a running network:
// the node joins the ring, attaches a processor, and receives from its
// successor the slice of stored state falling in its new arc — the key
// handoff of Chord's join protocol, charged as churn traffic. Routing
// state elsewhere converges through periodic stabilization; until then,
// stale deliveries heal through the ownership re-route path.
func (e *Engine) JoinNode(nid id.ID) (*chord.Node, error) {
	// Clear any mirrors an earlier incarnation of this identifier left
	// behind, so its dead streams cannot shadow the new node's.
	e.replForgetOrigin(nid)
	n, err := e.ring.Join(nid)
	if err != nil {
		return nil, err
	}
	e.NodeJoined(n)
	succ := n.Successor()
	if succ != n {
		if sp, ok := e.procs[succ.ID()]; ok {
			e.sendHandover(succ, n.ID(), buildArcHandover(e, sp, n))
		}
	}
	// The join shifts the successor lists of the new node's
	// predecessors: re-form the affected replica groups.
	e.replRepair()
	return n, nil
}

// LeaveNode removes a node gracefully: it flushes its batched outbox,
// drains its entire RJoin state to its successor as handover messages
// (counted in the churn traffic share), and departs the ring. Messages
// already in flight to the departed node bounce to the same successor,
// and the handover lands instantaneously, so a graceful leave loses no
// state and duplicates no answers. The exception is a node with no
// live successor (the last node, or one whose whole successor list
// died first): there is nobody to hand to, and its state — pending
// placements included — is counted as lost.
func (e *Engine) LeaveNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.net.FlushNode(n)
	succ := n.Successor()
	if succ != n && succ.Alive() {
		e.sendHandover(n, succ.ID(), buildFullHandover(p, succ.ID()))
	} else {
		e.countLostState(p)
	}
	// The departed node's mirrors are obsolete: its state lives on at
	// the successor (which re-replicates it as its own on arrival), or
	// is already counted lost. Update batches still in flight to a
	// dropped mirror are discarded by the stream versioning.
	if p.repl != nil {
		p.repl.outbox = nil
		for _, t := range p.repl.links.Targets() {
			e.replDropMirror(n.ID(), t)
		}
	}
	e.ring.Leave(n)
	e.NodeLeft(n)
	e.replRepair()
	return nil
}

// CrashNode removes a node abruptly. Without replication its stored
// state is gone: the engine re-indexes every input (Depth 0) continuous
// query the dead node was storing or placing from its owner's side
// (preserving identity and insertion time so the stream picks up where
// the crash cut it), while rewritten queries, stored tuples and
// aggregator partials are lost and counted — answers they would have
// produced are the crash's answer loss.
//
// With ReplicationFactor >= 2 and a surviving replica, nothing is
// lost: the first live member of the dead node's replica group — the
// node the ring now routes its keys to — promotes its mirror,
// re-indexing the state at its exact keys and re-replicating it.
// Promotion is scheduled rather than inline so replica updates the dead
// node flushed before crashing (strictly earlier event sequence
// numbers) land in the mirror first; every message bounced off the
// dead node re-routes with a later sequence and finds the promoted
// state. In-flight placement walks are mirrored too (rewrites included
// — without the mirror they exist only at the walk's origin) and
// restart at the promotee.
func (e *Engine) CrashNode(n *chord.Node) error {
	p, ok := e.procs[n.ID()]
	if !ok {
		return fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.ring.Fail(n)
	e.NodeLeft(n)

	// Mirrors the dead node held for other origins died with it: a
	// promotion already scheduled against one of them must count loss
	// instead of resurrecting state through its stale pointer.
	for _, ib := range p.replInboxes {
		ib.dead = true
	}

	now := e.sim.Now()
	promotee, replicated := e.replPromotee(p)

	// Lost placements of input queries, deterministically ordered.
	// Under promotion the stored queries survive in the mirror, so only
	// the pending placement walks need engine-side recovery.
	type lostPlacement struct {
		q     *query.Query
		key   relation.Key
		level query.Level
	}
	var lost []lostPlacement
	if !replicated {
		for _, key := range sortedStateKeys(p.queries) {
			for _, sq := range p.queries[key] {
				switch {
				case e.retiredQ[sq.q.ID]:
					// torn-down shared pipeline: nothing to recover or count
				case sq.q.Depth == 0 && !sq.q.OneTime:
					lost = append(lost, lostPlacement{q: sq.q, key: sq.key, level: sq.level})
				case sq.q.Depth == 0:
					e.Counters.QueriesLost++
				default:
					e.Counters.RewritesLost++
				}
			}
		}
	}
	// In-flight placement walks. Under promotion the mirror carries
	// them — every walk restarts at the promotee, rewrites included —
	// so the engine-side pass only runs for the unreplicated model.
	var rePlace []*query.Query
	if !replicated {
		for _, reqID := range sortedReqIDs(p.pending) {
			pp := p.pending[reqID]
			switch {
			case e.retiredQ[pp.q.ID]:
				// torn-down shared pipeline: nothing to recover or count
			case pp.q.Depth == 0 && !pp.q.OneTime:
				rePlace = append(rePlace, pp.q)
			case pp.q.Depth == 0:
				e.Counters.QueriesLost++
			default:
				e.Counters.RewritesLost++
			}
		}
	}
	if replicated {
		// Surviving replicas other than the promotee hold mirrors of the
		// dead node that will never be promoted; discard them. The
		// promotee's mirror stays (referenced by the scheduled
		// promotion, which consumes it even if the promotee departs
		// before the event fires — or counts it as loss if it cannot).
		var promoIb *replInbox
		if pp, ok := e.procs[promotee]; ok {
			promoIb = pp.replInboxes[n.ID()]
		}
		for _, t := range p.repl.links.Targets() {
			if t != promotee {
				e.replDropMirror(n.ID(), t)
			}
		}
		e.schedulePromotion(n.ID(), promotee, promoIb)
	} else {
		// No promotion possible: count the loss and discard every
		// mirror of the dead origin so nothing lingers unconsumed.
		e.countLostTuples(p)
		e.countLostAggState(p)
		if p.repl != nil {
			for _, t := range p.repl.links.Targets() {
				e.replDropMirror(n.ID(), t)
			}
		}
	}

	// Coordinator-context section: crash recovery sends originate from
	// many different recovery homes, so the tag scopes to every lane.
	e.net.WithTagAll(TagChurn, func() {
		// Re-index each lost input placement at exactly the key it was
		// stored under: with attribute-level replication the surviving
		// replicas keep their copies, so recovering only the lost
		// replica restores completeness without duplicating answers.
		for _, lp := range lost {
			home := e.recoveryHome(lp.q)
			if home == nil {
				e.Counters.QueriesLost++ // ring emptied out: nobody left to recover to
				continue
			}
			e.Counters.QueriesRecovered++
			e.net.Send(home, lp.key.ID(), newEvalMsg(lp.q.Clone(), lp.key, lp.level, nil))
		}
		// Placements that never completed restart from scratch.
		for _, q := range rePlace {
			home := e.recoveryHome(q)
			if home == nil {
				e.Counters.QueriesLost++
				continue
			}
			hp := e.procs[home.ID()]
			if hp == nil {
				e.Counters.QueriesLost++
				continue
			}
			e.Counters.QueriesRecovered++
			hp.place(now, q.Clone())
			hp.replFlush() // coordinator context: ship the walk's mirror op now
		}
	})
	// Every group the dead node belonged to lost a member: re-form them
	// (origins stream fresh snapshots to their new k−1th successors).
	e.replRepair()
	return nil
}

// recoveryHome returns the node that re-submits a recovered query: the
// owner if alive, else the current successor of the owner's identifier
// (where the owner's answers are bounced to as well).
func (e *Engine) recoveryHome(q *query.Query) *chord.Node {
	return e.ring.Owner(id.ID(q.Owner))
}

// countLostState charges every entry of a processor that disappears
// without handover — a departure with no live successor to hand to —
// to the loss counters, pending placements included.
func (e *Engine) countLostState(p *Proc) {
	for _, list := range p.queries {
		for _, sq := range list {
			if sq.q.Depth == 0 {
				e.Counters.QueriesLost++
			} else {
				e.Counters.RewritesLost++
			}
		}
	}
	for _, pp := range p.pending {
		if pp.q.Depth == 0 {
			e.Counters.QueriesLost++
		} else {
			e.Counters.RewritesLost++
		}
	}
	e.countLostTuples(p)
	e.countLostAggState(p)
}

// countLostAggState charges every (group, epoch) aggregation partial
// that dies with a node; the answers folded into it are the aggregate
// view's loss.
func (e *Engine) countLostAggState(p *Proc) {
	for _, g := range p.aggs {
		e.Counters.AggStateLost += g.epochCount()
	}
}

func (e *Engine) countLostTuples(p *Proc) {
	for _, list := range p.tuples {
		e.Counters.TuplesLost += int64(len(list))
	}
	for _, list := range p.altt {
		e.Counters.TuplesLost += int64(len(list))
	}
}
