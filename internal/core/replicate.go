package core

import (
	"slices"
	"sync"

	"rjoin/internal/agg"
	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/overlay"
	"rjoin/internal/query"
	"rjoin/internal/relation"
	"rjoin/internal/reliable"
	"rjoin/internal/sim"
)

// This file implements durable state replication over successor-list
// replica groups. Every key a node owns shares the same replica group —
// the node plus its ReplicationFactor−1 ring successors — so each node
// mirrors its keyed RJoin state (stored queries with their DISTINCT
// projection memory, value-level tuples, ALTT entries, candidate-table
// entries, aggregator group partials) along one versioned update stream
// per replica target. Mutations batch per handler invocation and fan
// out as replica-update messages charged under overlay.TagRepl;
// delivery is Transfer-like (instantaneous, one counted message per
// target), the simulation's rendering of a primary-backup protocol that
// acknowledges a mutation only once its backups hold it.
//
// On a crash, the surviving replica the ring now routes the dead node's
// keys to — its first live successor — promotes its mirror: the dead
// node's state is re-indexed at its exact keys and re-replicated to the
// promotee's own targets, instead of being counted lost. Promotion is
// scheduled as a zero-delay event rather than performed inline so that
// replica-update batches already in flight from the dead node (their
// event sequence numbers predate the crash) land in the mirror first.
// Graceful leaves and runtime joins keep groups consistent through the
// handover hooks (merged state re-replicates at its new owner, moved
// keys are dropped from stale mirrors), and every membership change
// ends in a repair pass that diffs each node's replica targets against
// its current successor list, streaming a full state snapshot to every
// new member and discarding mirrors held by former ones.

// replChunk bounds how many operations ride in one full-sync snapshot
// message, so re-replication traffic scales with the state moved —
// the same unit economics as handoverChunk.
const replChunk = 48

// replOpKind enumerates the mirrored mutation classes.
type replOpKind uint8

const (
	opAddQuery replOpKind = iota
	opRemoveQuery
	opTrigger
	opAddTuple
	opAddALTT
	opAggFold
	opAggMerge
	opCT
	opDropKey
	opAddPending
	opRemovePending
	opRemoveTuple
)

// replOp is one mirrored state mutation. It is a union struct like the
// handover entry kinds: only the fields of its kind are set. Pointer
// fields reference immutable objects (queries are frozen once stored,
// tuples always); mutable state (projection memory, combined sets,
// aggregation partials) is carried as copies owned by the operation so
// concurrent application at several replicas never shares writes.
type replOp struct {
	kind replOpKind
	key  relation.Key
	sqID int64 // opAddQuery / opRemoveQuery / opTrigger; the request id for opAddPending / opRemovePending

	q        *query.Query    // opAddQuery
	level    query.Level     // opAddQuery
	seen     map[string]bool // opAddQuery: projection memory snapshot
	combined []int64         // opAddQuery: migration combine memory snapshot

	proj   string // opTrigger: DISTINCT projection consumed ("" none)
	pubSeq int64  // opTrigger: combined publication sequence (0 none)

	t        *relation.Tuple // opAddTuple / opAddALTT
	expireAt sim.Time        // opAddALTT

	qid   string                 // opAggFold / opAggMerge
	owner id.ID                  // opAggFold / opAggMerge
	epoch int64                  // opAggFold
	row   []relation.Value       // opAggFold
	lin   []query.LineageStep    // opAggFold: the folded row's provenance
	gkey  string                 // opAggMerge: canonical group key
	group []relation.Value       // opAggMerge: grouping values copy
	parts map[int64]*agg.Partial // opAggMerge: cloned delta partials by epoch
	// lins is opAggMerge's cloned per-epoch lineage sets — mirrored
	// alongside the partials so a promoted group's provenance matches
	// what the dead primary would have emitted.
	lins map[int64]map[query.LineageStep]struct{}

	info ricInfo // opCT
}

// replUpdateMsg carries one batch of mirrored mutations from an origin
// to one replica target. Gen/First version the batch within the
// (origin, target) stream — see internal/reliable for the
// idempotency rules. Reset marks the head of a stream (always the batch
// starting at sequence 1): the receiver discards any previous mirror of
// this origin before applying.
type replUpdateMsg struct {
	From  id.ID
	To    id.ID
	Gen   int64
	First int64
	Reset bool
	Ops   []replOp
}

// RingKey implements overlay.Rekeyable: a batch in flight to a replica
// that just departed re-routes to its ring position's new owner, which
// discards it (To no longer matches) — the repair pass has already
// superseded the stream with a fresh snapshot.
func (m *replUpdateMsg) RingKey() id.ID { return m.To }

// Replica-update batches are pooled together with their Ops buffers.
// Every batch owns its Ops (no two messages share a backing array) and
// is delivered by Transfer, which never retains a copy for
// retransmission, so the replica recycles a batch as soon as it has
// applied it — possibly later than its arrival, when the inbox buffered
// it out of order. Batches dropped unapplied (stale, bounced to a node
// that no longer hosts the stream) fall to the garbage collector.
var replUpdateMsgPool = sync.Pool{New: func() interface{} { return new(replUpdateMsg) }}

// newReplUpdateMsg returns a pooled batch carrying a copy of ops.
func newReplUpdateMsg(from, to id.ID, gen, first int64, ops []replOp) *replUpdateMsg {
	m := replUpdateMsgPool.Get().(*replUpdateMsg)
	*m = replUpdateMsg{From: from, To: to, Gen: gen, First: first, Reset: first == 1, Ops: append(m.Ops[:0], ops...)}
	return m
}

// recycle returns an applied batch to the pool, dropping the references
// its operations hold.
func (m *replUpdateMsg) recycle() {
	ops := clearOps(m.Ops)
	*m = replUpdateMsg{Ops: ops}
	replUpdateMsgPool.Put(m)
}

// replKeepOps caps the operation buffers kept for reuse. A handler
// batch holds a few operations; the rare large batch (a snapshot chunk,
// a promotion or handover re-replicating a whole store) would pin
// hundreds of kilobytes in an outbox or a pooled message long after it
// was shipped, so its buffer is left to the garbage collector instead.
const replKeepOps = 16

// clearOps empties an operation buffer for reuse, dropping the
// references its operations hold, or discards it when it is too large
// to keep.
func clearOps(ops []replOp) []replOp {
	if cap(ops) > replKeepOps {
		return nil
	}
	clear(ops)
	return ops[:0]
}

// procRepl is the origin-side replication state of one processor.
type procRepl struct {
	links  *reliable.Links
	outbox []replOp
	sqCtr  int64 // stored-query identities for remove/trigger ops
}

// replInbox is the replica-side state one node keeps per origin: the
// versioned stream tracker and the mirror it materializes into. dead
// marks a mirror whose holder crashed before a scheduled promotion
// could consume it — the contents died with the holder and must be
// counted as loss, not resurrected through a stale pointer.
type replInbox struct {
	in     *reliable.Inbox
	mirror *replMirror
	dead   bool
}

// replMirror is a passive copy of one origin's keyed state. It is never
// consulted by query processing — only promotion reads it back.
type replMirror struct {
	queries map[relation.Key][]*mirrorQuery
	bySq    map[int64]*mirrorQuery
	tuples  map[relation.Key][]*relation.Tuple
	altt    map[relation.Key][]alttEntry
	aggs    map[relation.Key]*aggGroup
	ct      map[relation.Key]ctEntry
	pending map[int64]*query.Query // in-flight placement walks by request id
}

// mirrorQuery is the mirrored form of one stored query: the immutable
// query object shared by pointer, the mutable projection/combine memory
// owned by the mirror.
type mirrorQuery struct {
	sqID     int64
	q        *query.Query
	key      relation.Key
	level    query.Level
	seen     map[string]bool
	combined []int64
}

func newReplMirror() *replMirror {
	return &replMirror{
		queries: make(map[relation.Key][]*mirrorQuery),
		bySq:    make(map[int64]*mirrorQuery),
		tuples:  make(map[relation.Key][]*relation.Tuple),
		altt:    make(map[relation.Key][]alttEntry),
		aggs:    make(map[relation.Key]*aggGroup),
		ct:      make(map[relation.Key]ctEntry),
		pending: make(map[int64]*query.Query),
	}
}

func copySeen(m map[string]bool) map[string]bool {
	if len(m) == 0 {
		return nil
	}
	cp := make(map[string]bool, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

func copyCombined(s []int64) []int64 {
	if len(s) == 0 {
		return nil
	}
	return append([]int64(nil), s...)
}

// ---------------------------------------------------------------------
// Origin side: mutation hooks, batching, flushing.

// replOn reports whether this processor mirrors its mutations. Every
// hook fast-exits through it, so a network without replication pays one
// nil check per mutation and nothing else.
func (p *Proc) replOn() bool { return p.repl != nil }

func (p *Proc) replEnqueue(op replOp) { p.repl.outbox = append(p.repl.outbox, op) }

// replQueryAdd mirrors the admission of a stored query, assigning the
// identity later trigger/remove operations reference. Called wherever a
// storedQuery enters p.queries: Eval arrival, handover merge, mirror
// promotion.
func (p *Proc) replQueryAdd(sq *storedQuery) {
	if !p.replOn() {
		return
	}
	p.repl.sqCtr++
	sq.replID = p.repl.sqCtr
	p.replEnqueue(replOp{
		kind: opAddQuery, key: sq.key, sqID: sq.replID,
		q: sq.q, level: sq.level,
		seen: copySeen(sq.seen), combined: copyCombined(sq.combined),
	})
}

// replQueryRemove mirrors a stored query's departure (window expiry,
// migration to a colder key).
func (p *Proc) replQueryRemove(sq *storedQuery) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opRemoveQuery, key: sq.key, sqID: sq.replID})
}

// replTrigger mirrors the per-query memory a successful trigger leaves
// behind: the DISTINCT projection it consumed (proj, as returned by
// markTrigger — rendered once, not re-derived here) and, under
// migration, the combined publication sequence. Plain queries leave no
// memory and emit nothing.
func (p *Proc) replTrigger(sq *storedQuery, t *relation.Tuple, proj string) {
	if !p.replOn() {
		return
	}
	var ps int64
	if p.eng.Cfg.EnableMigration {
		ps = t.PubSeq
	}
	if proj == "" && ps == 0 {
		return
	}
	p.replEnqueue(replOp{kind: opTrigger, key: sq.key, sqID: sq.replID, proj: proj, pubSeq: ps})
}

// replTupleAdd mirrors a value-level tuple store.
func (p *Proc) replTupleAdd(key relation.Key, t *relation.Tuple) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opAddTuple, key: key, t: t})
}

// replTupleRemove mirrors a garbage-collected tuple (identified by its
// unique publication sequence), so mirrors track GC exactly instead of
// growing unboundedly relative to their primary.
func (p *Proc) replTupleRemove(key relation.Key, pubSeq int64) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opRemoveTuple, key: key, pubSeq: pubSeq})
}

// replALTTAdd mirrors an ALTT admission. Expiry is not mirrored:
// entries carry their expiry time, so stale ones are filtered when (and
// only when) a mirror is promoted.
func (p *Proc) replALTTAdd(key relation.Key, e alttEntry) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opAddALTT, key: key, t: e.t, expireAt: e.expireAt})
}

// replAggFold mirrors one partial folded into aggregator state; the
// replica folds the same row into its own mirror partial, which is
// bit-equal because every aggregate's fold is order-insensitive.
func (p *Proc) replAggFold(key relation.Key, qid string, owner id.ID, epoch int64, row []relation.Value, lin []query.LineageStep) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opAggFold, key: key, qid: qid, owner: owner, epoch: epoch, row: row, lin: lin})
}

// replAggMerge mirrors a whole-group delta (handover merge, promotion
// re-replication): the replica merges the cloned partials into its
// mirror group, mirroring exactly the merge the live store performed.
// Must be called BEFORE the live merge — mergeInto moves partial
// pointers into the destination, so cloning afterwards would snapshot
// live state instead of the delta.
func (p *Proc) replAggMerge(key relation.Key, g *aggGroup) {
	if !p.replOn() {
		return
	}
	parts := make(map[int64]*agg.Partial, len(g.epochs))
	for e, part := range g.epochs {
		parts[e] = part.Clone()
	}
	p.replEnqueue(replOp{
		kind: opAggMerge, key: key, qid: g.qid, owner: g.owner,
		gkey: g.gkey, group: append([]relation.Value(nil), g.group...),
		parts: parts, lins: cloneLins(g.lins),
	})
}

// cloneLins deep-copies per-epoch lineage sets for an operation that
// will be applied at several replicas concurrently.
func cloneLins(lins map[int64]map[query.LineageStep]struct{}) map[int64]map[query.LineageStep]struct{} {
	if len(lins) == 0 {
		return nil
	}
	out := make(map[int64]map[query.LineageStep]struct{}, len(lins))
	for e, set := range lins {
		cp := make(map[query.LineageStep]struct{}, len(set))
		for s := range set {
			cp[s] = struct{}{}
		}
		out[e] = cp
	}
	return out
}

// ctMerge is the candidate-table write path: it merges the report into
// the live table and mirrors it. All CT mutations go through here so
// mirrored tables track the live one.
func (p *Proc) ctMerge(info ricInfo) {
	p.ct.merge(info)
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opCT, key: info.Key, info: info})
}

// replPendingAdd mirrors an in-flight placement walk. Pending
// placements are the one piece of node-bound (rather than keyed) state
// replication must cover: a walk exists only at its origin, so without
// a mirror a crash silently un-places the query it was routing —
// a rewrite lost before it was ever indexed. The mirror keeps just the
// query; promotion restarts the walk from scratch, which is safe
// because an un-replied walk has indexed nothing, and the dead walk's
// eventual RIC reply bounces to a node that does not know its request
// id and is dropped.
func (p *Proc) replPendingAdd(reqID int64, q *query.Query) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opAddPending, sqID: reqID, q: q})
}

// replPendingRemove mirrors a walk's completion.
func (p *Proc) replPendingRemove(reqID int64) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opRemovePending, sqID: reqID})
}

// replDropKey mirrors the wholesale departure of a key (arc handover to
// a freshly joined node, key re-homing): the replica drops everything
// mirrored under it.
func (p *Proc) replDropKey(key relation.Key) {
	if !p.replOn() {
		return
	}
	p.replEnqueue(replOp{kind: opDropKey, key: key})
}

// replFlush ships the handler batch to every replica target: one
// message per target, each stamped with that stream's generation and
// next sequence range and owning a copy of the batch (see
// replUpdateMsgPool). The outbox is then truncated, not reallocated:
// the next handler reuses its buffer. Anything a mirror must own
// beyond a batch's lifetime is copied at application time. Runs at the
// end of every message handler and after coordinator-side mutations
// (promotion, handover construction).
func (p *Proc) replFlush() {
	if p.repl == nil || len(p.repl.outbox) == 0 {
		return
	}
	ops := p.repl.outbox
	// With no replica group (ring smaller than the factor) the batch is
	// simply dropped; the repair pass snapshots everything when one
	// forms.
	if targets := p.repl.links.Targets(); len(targets) > 0 {
		p.ctr.ReplUpdates += int64(len(targets))
		p.ctr.ReplOps += int64(len(ops) * len(targets))
		p.eng.net.ReplicateTo(p.node, targets, func(tgt id.ID) overlay.Message {
			s := p.repl.links.Stream(tgt)
			return newReplUpdateMsg(p.node.ID(), tgt, s.Gen(), s.Next(len(ops)), ops)
		})
	}
	p.repl.outbox = clearOps(ops)
}

// ---------------------------------------------------------------------
// Replica side: stream application into the mirror.

// onReplUpdate applies one received batch. Batches for a stream this
// node no longer hosts (bounced past a departed replica) and replayed
// or superseded ranges are dropped by the inbox — the idempotency the
// versioning exists for.
func (p *Proc) onReplUpdate(now sim.Time, m *replUpdateMsg) {
	if m.To != p.node.ID() {
		p.ctr.ReplStale++ // bounced to the ring position's new owner; repair supersedes it
		return
	}
	ib, ok := p.replInboxes[m.From]
	if !ok {
		ib = &replInbox{in: reliable.NewInbox(), mirror: newReplMirror()}
		p.replInboxes[m.From] = ib
	}
	pre := ib.in.Stale
	for _, d := range ib.in.Offer(m.Gen, m.Reset, m.First, len(m.Ops), m) {
		if d.Reset {
			ib.mirror = newReplMirror()
		}
		b := d.Payload.(*replUpdateMsg)
		for i := range b.Ops {
			ib.mirror.apply(p, &b.Ops[i], now)
		}
		b.recycle()
	}
	p.ctr.ReplStale += ib.in.Stale - pre
}

// apply folds one operation into the mirror.
func (mr *replMirror) apply(p *Proc, op *replOp, now sim.Time) {
	switch op.kind {
	case opAddQuery:
		mq := &mirrorQuery{
			sqID: op.sqID, q: op.q, key: op.key, level: op.level,
			seen: copySeen(op.seen), combined: copyCombined(op.combined),
		}
		mr.queries[op.key] = append(mr.queries[op.key], mq)
		mr.bySq[op.sqID] = mq
	case opRemoveQuery:
		mq, ok := mr.bySq[op.sqID]
		if !ok {
			return
		}
		delete(mr.bySq, op.sqID)
		list := mr.queries[mq.key]
		for i, e := range list {
			if e == mq {
				mr.queries[mq.key] = slices.Delete(list, i, i+1) // clears the vacated slot
				break
			}
		}
		if len(mr.queries[mq.key]) == 0 {
			delete(mr.queries, mq.key)
		}
	case opTrigger:
		mq, ok := mr.bySq[op.sqID]
		if !ok {
			return
		}
		if op.proj != "" {
			if mq.seen == nil {
				mq.seen = make(map[string]bool)
			}
			mq.seen[op.proj] = true
		}
		if op.pubSeq != 0 {
			mq.combined = append(mq.combined, op.pubSeq)
		}
	case opAddTuple:
		mr.tuples[op.key] = append(mr.tuples[op.key], op.t)
	case opAddALTT:
		// Origin admissions arrive in expiry order (constant Δ), so the
		// mirror list keeps the contiguous-expired-prefix invariant.
		mr.altt[op.key] = append(mr.altt[op.key], alttEntry{t: op.t, expireAt: op.expireAt})
	case opAggFold:
		spec := p.eng.aggSpec(op.qid)
		if spec == nil {
			return
		}
		g, ok := mr.aggs[op.key]
		if !ok {
			g = &aggGroup{
				qid: op.qid, owner: op.owner,
				gkey: spec.GroupKey(op.row), group: spec.GroupValues(op.row),
				epochs: make(map[int64]*agg.Partial),
				dirty:  make(map[int64]bool),
			}
			mr.aggs[op.key] = g
		}
		part, ok := g.epochs[op.epoch]
		if !ok {
			part = agg.NewPartial(spec)
			g.epochs[op.epoch] = part
		}
		part.Add(spec, op.row)
		g.foldLineage(op.epoch, op.lin)
	case opAggMerge:
		if p.eng.aggSpec(op.qid) == nil {
			return
		}
		g, ok := mr.aggs[op.key]
		if !ok {
			g = &aggGroup{
				qid: op.qid, owner: op.owner,
				gkey: op.gkey, group: append([]relation.Value(nil), op.group...),
				epochs: make(map[int64]*agg.Partial),
				dirty:  make(map[int64]bool),
			}
			mr.aggs[op.key] = g
		}
		for e, part := range op.parts {
			if cur, ok := g.epochs[e]; ok {
				cur.Merge(part)
			} else {
				g.epochs[e] = part.Clone() // op.parts is shared across replicas
			}
		}
		for e, set := range op.lins {
			if g.lins == nil {
				g.lins = make(map[int64]map[query.LineageStep]struct{})
			}
			dstSet, ok := g.lins[e]
			if !ok {
				dstSet = make(map[query.LineageStep]struct{}, len(set))
				g.lins[e] = dstSet
			}
			for s := range set {
				dstSet[s] = struct{}{}
			}
		}
	case opCT:
		if cur, ok := mr.ct[op.key]; ok && cur.At >= op.info.At {
			return
		}
		mr.ct[op.key] = ctEntry{Rate: op.info.Rate, Addr: op.info.Addr, At: op.info.At}
	case opDropKey:
		for _, mq := range mr.queries[op.key] {
			delete(mr.bySq, mq.sqID)
		}
		delete(mr.queries, op.key)
		delete(mr.tuples, op.key)
		delete(mr.altt, op.key)
		delete(mr.aggs, op.key)
	case opAddPending:
		mr.pending[op.sqID] = op.q
	case opRemovePending:
		delete(mr.pending, op.sqID)
	case opRemoveTuple:
		list := mr.tuples[op.key]
		for i, t := range list {
			if t.PubSeq == op.pubSeq {
				// slices.Delete clears the vacated tail slot, so the
				// collected tuple does not stay reachable past len.
				mr.tuples[op.key] = slices.Delete(list, i, i+1)
				break
			}
		}
		if len(mr.tuples[op.key]) == 0 {
			delete(mr.tuples, op.key)
		}
	}
}

// entryCount reports the mirrored entries, the unit promotion counts.
func (mr *replMirror) entryCount() (queries, tuples, altt int, aggEpochs int64) {
	for _, l := range mr.queries {
		queries += len(l)
	}
	for _, l := range mr.tuples {
		tuples += len(l)
	}
	for _, l := range mr.altt {
		altt += len(l)
	}
	for _, g := range mr.aggs {
		aggEpochs += g.epochCount()
	}
	return
}

// ---------------------------------------------------------------------
// Group maintenance: repair, snapshots, promotion.

// replTargetsOf computes a node's wanted replica targets from its
// current successor list.
func (e *Engine) replTargetsOf(n *chord.Node) []id.ID {
	succs := e.ring.SuccessorList(n, e.Cfg.ReplicationFactor-1)
	out := make([]id.ID, len(succs))
	for i, s := range succs {
		out[i] = s.ID()
	}
	return out
}

// replRepair reconciles every node's replica group with the ring after
// a membership change: new group members receive a full state snapshot
// on a fresh stream, former members discard their mirror. Runs in
// coordinator context (no handler in flight) at the end of every
// membership operation; on a static ring it settles immediately into
// no-ops. The scan is deliberately whole-ring rather than limited to
// the changed node's k−1 predecessors: only they can differ, but the
// full diff is self-evidently correct under any sequence of changes
// (mid-stabilization successor-list walks included) and costs O(N·k)
// map work per membership event — noise at simulation scale.
func (e *Engine) replRepair() {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, n := range e.ring.Nodes() { // identifier order: deterministic
		p := e.procs[n.ID()]
		if p == nil || p.repl == nil {
			continue
		}
		added, removed := p.repl.links.Sync(e.replTargetsOf(n))
		for _, t := range removed {
			e.replDropMirror(n.ID(), t)
		}
		for _, t := range added {
			e.replSendSnapshot(p, t)
		}
	}
}

// replDropMirror discards the mirror target holds for origin, closing
// the stream so in-flight remnants are rejected. A no-op when the
// target is gone or never opened the stream.
func (e *Engine) replDropMirror(origin, target id.ID) {
	tp, ok := e.procs[target]
	if !ok {
		return
	}
	if ib, ok := tp.replInboxes[origin]; ok {
		ib.in.Drop()
		delete(tp.replInboxes, origin)
	}
}

// replForgetOrigin clears every mirror of an identifier across the
// network — called when an identifier joins, so an earlier incarnation's
// streams (dead or departed) cannot shadow the new node's.
func (e *Engine) replForgetOrigin(nid id.ID) {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, p := range e.procs {
		delete(p.replInboxes, nid)
	}
}

// replResyncAll rebuilds every replication stream from scratch: all
// links restart on fresh generations and every target receives a full
// snapshot. The sledgehammer for operations that redistribute stored
// keys wholesale (identifier movement / RehomeKeys), where incremental
// drop/add bookkeeping would have to re-derive every moved key.
func (e *Engine) replResyncAll() {
	if e.Cfg.ReplicationFactor < 2 {
		return
	}
	for _, n := range e.ring.Nodes() {
		p := e.procs[n.ID()]
		if p == nil || p.repl == nil {
			continue
		}
		p.repl.outbox = nil // moved-state ops are superseded by the snapshots
		for _, t := range p.repl.links.Targets() {
			e.replDropMirror(n.ID(), t)
		}
		p.repl.links.Sync(nil)
	}
	e.replRepair()
}

// replSendSnapshot streams origin p's full keyed state to one new
// replica target in replChunk-sized batches. The first batch starts the
// stream (sequence 1 ⇒ Reset), so the receiver's mirror is rebuilt
// from scratch. A node with no keyed state sends nothing: the stream
// opens lazily with its first update batch, so establishing groups on a
// fresh engine costs no traffic.
func (e *Engine) replSendSnapshot(p *Proc, tgt id.ID) {
	ops := p.replSnapshotOps()
	if len(ops) == 0 {
		return
	}
	e.Counters.ReplSyncs++
	s := p.repl.links.Stream(tgt)
	e.net.WithTag(p.node, overlay.TagRepl, func() {
		for len(ops) > 0 {
			n := len(ops)
			if n > replChunk {
				n = replChunk
			}
			chunk := ops[:n]
			ops = ops[n:]
			first := s.Next(n)
			p.ctr.ReplUpdates++
			p.ctr.ReplOps += int64(n)
			e.net.Transfer(p.node, tgt, newReplUpdateMsg(p.node.ID(), tgt, s.Gen(), first, chunk))
		}
	})
}

// replSnapshotOps encodes the processor's current keyed state as one
// deterministic operation sequence — the stream prefix a freshly added
// replica needs to be mirror-equal with incremental streaming.
func (p *Proc) replSnapshotOps() []replOp {
	var ops []replOp
	for _, key := range sortedStateKeys(p.queries) {
		list := p.queries[key]
		for i := range list {
			sq := &list[i]
			if sq.replID == 0 {
				p.repl.sqCtr++
				sq.replID = p.repl.sqCtr
			}
			ops = append(ops, replOp{
				kind: opAddQuery, key: key, sqID: sq.replID,
				q: sq.q, level: sq.level,
				seen: copySeen(sq.seen), combined: copyCombined(sq.combined),
			})
		}
	}
	for _, key := range sortedStateKeys(p.tuples) {
		for _, t := range p.tuples[key] {
			ops = append(ops, replOp{kind: opAddTuple, key: key, t: t})
		}
	}
	for _, key := range sortedStateKeys(p.altt) {
		for _, en := range p.altt[key] {
			ops = append(ops, replOp{kind: opAddALTT, key: key, t: en.t, expireAt: en.expireAt})
		}
	}
	for _, key := range sortedStateKeys(p.aggs) {
		g := p.aggs[key]
		parts := make(map[int64]*agg.Partial, len(g.epochs))
		for e, part := range g.epochs {
			parts[e] = part.Clone()
		}
		ops = append(ops, replOp{
			kind: opAggMerge, key: key, qid: g.qid, owner: g.owner,
			gkey: g.gkey, group: append([]relation.Value(nil), g.group...),
			parts: parts,
		})
	}
	for _, key := range sortedStateKeys(p.ct.entries) {
		en := p.ct.entries[key]
		ops = append(ops, replOp{kind: opCT, key: key, info: ricInfo{Key: key, Rate: en.Rate, Addr: en.Addr, At: en.At}})
	}
	for _, reqID := range sortedReqIDs(p.pending) {
		ops = append(ops, replOp{kind: opAddPending, sqID: reqID, q: p.pending[reqID].q})
	}
	return ops
}

// replPromotee selects the surviving replica that promotes a crashed
// node's mirror: the ground-truth new owner of the dead node's ring
// position — its first alive successor, which the repair pass keeps in
// every replica group. Targets() is sorted by identifier, not ring
// order, so the owner must be matched against the ring, not taken from
// the front of the list (with k >= 3 the numerically smallest target
// may be the second successor, which owns none of the dead arc).
func (e *Engine) replPromotee(p *Proc) (id.ID, bool) {
	if p.repl == nil {
		return 0, false
	}
	owner := e.ring.Owner(p.node.ID()) // post-Fail: the dead arc's new owner
	if owner == nil {
		return 0, false
	}
	for _, t := range p.repl.links.Targets() {
		if t == owner.ID() {
			if _, ok := e.procs[t]; ok {
				return t, true
			}
		}
	}
	return 0, false
}

// promoteCtx carries a scheduled promotion: the dead origin, the
// replica expected to hold its mirror, the mirror inbox as known at
// crash time (nil when the snapshot that materializes it is still in
// flight — it is re-resolved at fire time), and a hop budget for the
// pathological case where the promotee itself departs within the same
// tick and the promotion must chase the key range's current owner.
type promoteCtx struct {
	dead     id.ID
	promotee id.ID
	ib       *replInbox
	hops     int
}

// schedulePromotion queues the mirror promotion as a zero-delay event
// on the promotee's shard. Ordering does the heavy lifting: replica
// updates the dead node flushed before crashing carry earlier sequence
// numbers than anything scheduled from the crash itself, so they are
// applied to the mirror before this event fires, while every message
// bounced off the dead node re-routes with a fresh (later) sequence and
// therefore observes the promoted state.
func (e *Engine) schedulePromotion(dead, promotee id.ID, ib *replInbox) {
	dst := sim.NoShard
	if e.par {
		dst = sim.ShardOfID(uint64(promotee))
	}
	e.sim.AfterCtxShard(0, promoteEvent, sim.Ctx{A: e, B: &promoteCtx{dead: dead, promotee: promotee, ib: ib}}, sim.NoShard, dst)
}

// ctrAt returns the counter slot a promotion event may write: the shard
// slot of the node the event executes on (exclusively owned by the
// running worker), or the engine counters on a serial engine.
func (e *Engine) ctrAt(nid id.ID) *Counters {
	if !e.par {
		return &e.Counters
	}
	return &e.shardCtr[sim.ShardOfID(uint64(nid))]
}

// promoteEvent executes a scheduled promotion.
func promoteEvent(now sim.Time, c sim.Ctx) {
	e := c.A.(*Engine)
	pc := c.B.(*promoteCtx)
	p, ok := e.procs[pc.promotee]
	if !ok {
		// The promotee departed in the same tick. Chase the dead arc's
		// current owner, carrying the mirror pointer (the departed
		// promotee's inbox map is gone, but the mirror object survives
		// a graceful leave); if the chase exhausts its budget or the
		// ring emptied, the mirror is unrecoverable — count it, so the
		// zero-loss counters never lie.
		if owner := e.ring.Owner(pc.dead); owner != nil && pc.hops < maxReroutes {
			src, dst := sim.NoShard, sim.NoShard
			if e.par {
				src = sim.ShardOfID(uint64(pc.promotee)) // the shard this event ran on
				dst = sim.ShardOfID(uint64(owner.ID()))
			}
			pc.hops++
			pc.promotee = owner.ID()
			e.sim.AfterCtxShard(0, promoteEvent, c, src, dst)
			return
		}
		if pc.ib != nil {
			countMirrorLost(e.ctrAt(pc.promotee), pc.ib.mirror)
		}
		return
	}
	ib := pc.ib
	if ib == nil {
		ib = p.replInboxes[pc.dead] // snapshot landed after the crash scheduled us
	}
	if ib == nil {
		return // the origin had no mirrored state
	}
	delete(p.replInboxes, pc.dead)
	if ib.dead {
		// The mirror's holder crashed before this event fired: the
		// contents died with it.
		countMirrorLost(p.ctr, ib.mirror)
		return
	}
	e.promoteMirror(p, ib, now)
}

// countMirrorLost charges an unrecoverable mirror's contents to the
// loss counters — the accounting promotion normally replaces, restored
// for the corners (promotee crashing or vanishing before the promotion
// fires) where the recovered state really is gone.
func countMirrorLost(ctr *Counters, mr *replMirror) {
	for _, list := range mr.queries {
		for _, mq := range list {
			if mq.q.Depth == 0 {
				ctr.QueriesLost++
			} else {
				ctr.RewritesLost++
			}
		}
	}
	for _, list := range mr.tuples {
		ctr.TuplesLost += int64(len(list))
	}
	for _, list := range mr.altt {
		ctr.TuplesLost += int64(len(list))
	}
	for _, g := range mr.aggs {
		ctr.AggStateLost += g.epochCount()
	}
	for _, q := range mr.pending {
		if q.Depth == 0 {
			ctr.QueriesLost++
		} else {
			ctr.RewritesLost++
		}
	}
}

// promoteMirror re-indexes a dead origin's mirror into the promotee's
// live stores at its exact keys and re-replicates every promoted entry
// to the promotee's own replica group — the step that restores the
// replication factor for the recovered state.
func (e *Engine) promoteMirror(p *Proc, ib *replInbox, now sim.Time) {
	ib.in.Kill()
	mr := ib.mirror
	p.ctr.ReplPromotions++

	for _, key := range sortedStateKeys(mr.queries) {
		for _, mq := range mr.queries[key] {
			if e.retiredQ[mq.q.ID] {
				continue // torn-down shared pipeline: do not resurrect
			}
			p.addStored(storedQuery{
				q: mq.q, key: mq.key, level: mq.level, agg: mq.q.IsAggregate(),
				seen: mq.seen, combined: mq.combined, triggers: len(mq.combined),
			})
			p.ctr.ReplEntriesPromoted++
			if mq.q.Depth == 0 && !mq.q.OneTime {
				p.ctr.QueriesRecovered++
			}
		}
	}
	for _, key := range sortedStateKeys(mr.tuples) {
		for _, t := range mr.tuples[key] {
			// GC removals are mirrored (opRemoveTuple), so the mirror
			// holds exactly what the primary held: nothing collected is
			// resurrected here.
			p.tuples[key] = append(p.tuples[key], t)
			p.replTupleAdd(key, t)
			p.ctr.ReplEntriesPromoted++
		}
	}
	for _, key := range sortedStateKeys(mr.altt) {
		for _, en := range mr.altt[key] {
			if en.expireAt < now {
				p.ctr.ALTTExpired++ // the entry would have lapsed at the primary too
				continue
			}
			p.insertALTT(key, en)
			p.replALTTAdd(key, en)
			p.ctr.ReplEntriesPromoted++
		}
	}
	for _, key := range sortedStateKeys(mr.aggs) {
		g := mr.aggs[key]
		if e.retiredS[g.qid] {
			continue // subscriber unsubscribed: its per-group state is dead
		}
		sliding := false
		if sp := p.eng.aggSpec(g.qid); sp != nil {
			sliding = sp.Sliding()
		}
		p.ctr.ReplEntriesPromoted += g.epochCount()
		p.replAggMerge(key, g) // delta first: mergeInto moves partials
		if cur, ok := p.aggs[key]; ok {
			g.mergeInto(sliding, cur) // marks the transferred epochs dirty on cur
		} else {
			for ep := range g.epochs {
				g.dirty[ep] = true
				if sliding {
					g.dirty[ep+1] = true
				}
			}
			p.aggs[key] = g
		}
	}
	for _, key := range sortedStateKeys(mr.ct) {
		en := mr.ct[key]
		p.ctMerge(ricInfo{Key: key, Rate: en.Rate, Addr: en.Addr, At: en.At})
	}
	// Placement walks die with their origin; restart each mirrored one
	// from here. Charged as churn traffic like the rest of crash
	// recovery — the walk is recovery work, not mirror maintenance.
	if len(mr.pending) > 0 {
		reqIDs := make([]int64, 0, len(mr.pending))
		for reqID := range mr.pending {
			reqIDs = append(reqIDs, reqID)
		}
		slices.Sort(reqIDs)
		p.eng.net.WithTag(p.node, TagChurn, func() {
			for _, reqID := range reqIDs {
				q := mr.pending[reqID]
				if e.retiredQ[q.ID] {
					continue // torn-down shared pipeline: drop the walk
				}
				p.ctr.ReplEntriesPromoted++
				if q.Depth == 0 && !q.OneTime {
					p.ctr.QueriesRecovered++
				}
				p.place(now, q.Clone())
			}
		})
	}
	p.replFlush()
}
