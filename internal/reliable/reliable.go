// Package reliable implements sequence-numbered channel bookkeeping
// shared by every layer that must apply a message stream exactly once
// over an unreliable or reordering transport: per-link versioned update
// streams with their link registries (the durable-state replication
// layer), the stream-side inbox that makes applying those streams
// idempotent under replays and reorders, and the unordered Dedup filter
// the overlay's end-to-end reliable channels use to suppress duplicate
// deliveries.
//
// The replication use is successor-list replication: every key a node
// owns has the same replica group — the node itself plus its k−1 ring
// successors — so each node maintains one outgoing stream per replica
// target and mirrors its keyed state along all of them. What the
// payloads mean is the caller's business (internal/core encodes RJoin
// state mutations); this package only guarantees that a batch stream is
// applied exactly once, in order, per (origin, target, generation).
//
// Versioning is two-level. Each (origin → target) link carries a
// generation, bumped whenever the link is (re-)established with a full
// state snapshot, and each batch within a generation carries a
// contiguous operation-sequence range. A replica applies a batch iff it
// extends the applied prefix of the current generation: older
// generations are dropped (a superseding snapshot is or was in flight),
// replayed ranges are dropped (idempotency), and gaps are buffered until
// the missing range arrives (reorder tolerance).
package reliable

import (
	"slices"
	"sort"

	"rjoin/internal/id"
)

// Stream is the origin-side state of one outgoing replication link: the
// current generation and the operation sequence already assigned.
type Stream struct {
	gen  int64
	next int64 // next unassigned op sequence (first op of a gen is 1)
}

// Gen returns the stream's current generation.
func (s *Stream) Gen() int64 { return s.gen }

// Next assigns the next n operation sequence numbers and returns the
// first of them.
func (s *Stream) Next(n int) int64 {
	first := s.next
	s.next += int64(n)
	return first
}

// Links is one origin's registry of outgoing replication links, in
// deterministic (ascending target identifier) order. Generations are
// drawn from a single per-origin counter, so a target that is dropped
// and later re-acquired always sees a strictly larger generation than
// any batch of its earlier stream.
type Links struct {
	streams map[id.ID]*Stream
	order   []id.ID
	gens    int64
}

// NewLinks returns an empty registry.
func NewLinks() *Links {
	return &Links{streams: make(map[id.ID]*Stream)}
}

// Targets returns the current targets in ascending identifier order.
// The returned slice is shared; callers must not mutate it.
func (l *Links) Targets() []id.ID { return l.order }

// Stream returns the stream of an established target, or nil.
func (l *Links) Stream(target id.ID) *Stream { return l.streams[target] }

// Sync reconciles the registry with the wanted target set and reports
// the difference: added targets carry a fresh stream (new generation,
// sequence reset — the caller owes each a full state snapshot), removed
// targets are forgotten (the caller should discard the mirror held
// there). Both result slices are in ascending identifier order.
func (l *Links) Sync(want []id.ID) (added, removed []id.ID) {
	inWant := make(map[id.ID]bool, len(want))
	for _, t := range want {
		inWant[t] = true
	}
	for _, t := range l.order {
		if !inWant[t] {
			removed = append(removed, t)
			delete(l.streams, t)
		}
	}
	for _, t := range want {
		if _, ok := l.streams[t]; !ok {
			l.gens++
			l.streams[t] = &Stream{gen: l.gens, next: 1}
			added = append(added, t)
		}
	}
	l.order = l.order[:0]
	for t := range l.streams {
		l.order = append(l.order, t)
	}
	sort.Slice(l.order, func(i, j int) bool { return l.order[i] < l.order[j] })
	sort.Slice(added, func(i, j int) bool { return added[i] < added[j] })
	sort.Slice(removed, func(i, j int) bool { return removed[i] < removed[j] })
	return added, removed
}

// Delivery is one batch released by an Inbox for application, in order.
// Reset marks the first batch of a new generation: the caller must
// discard the origin's mirrored state before applying the payload (it
// is the head of a full snapshot).
type Delivery struct {
	Reset   bool
	Payload any
}

// pendingBatch is a buffered out-of-order batch.
type pendingBatch struct {
	gen     int64
	reset   bool
	first   int64
	count   int
	payload any
}

// Inbox is the replica-side state of one incoming origin stream. It
// admits each operation exactly once no matter how batches are
// duplicated or reordered, releasing them strictly in (generation,
// sequence) order.
type Inbox struct {
	gen     int64
	applied int64 // ops applied in the current generation
	open    bool
	killed  bool
	pending []pendingBatch
	out     []Delivery // Offer's result buffer, reused across calls

	// Stale counts batches dropped as replays or superseded
	// generations — the idempotency machinery's visible work.
	Stale int64
}

// NewInbox returns an inbox that accepts the first generation offered.
func NewInbox() *Inbox { return &Inbox{} }

// Applied returns the number of operations applied in the current
// generation.
func (b *Inbox) Applied() int64 { return b.applied }

// Gen returns the generation currently being applied.
func (b *Inbox) Gen() int64 { return b.gen }

// Open reports whether the inbox currently tracks a live stream.
func (b *Inbox) Open() bool { return b.open && !b.killed }

// Drop discards buffered batches and closes the current stream. A later
// snapshot batch with a higher generation reopens the inbox (the link
// was re-established); batches of the dropped generation are ignored.
func (b *Inbox) Drop() {
	b.open = false
	b.pending = nil
}

// Kill closes the inbox permanently: the origin is gone and no future
// stream from it can be valid. All subsequent offers are dropped.
func (b *Inbox) Kill() {
	b.killed = true
	b.open = false
	b.pending = nil
}

// Offer hands the inbox one received batch: generation gen, snapshot
// head if reset, operations [first, first+count). It returns the
// batches this makes applicable, in application order — usually just
// the offered one, but a batch that fills a buffered gap releases its
// followers too, and a stale or replayed batch releases nothing. The
// result is the inbox's reused buffer, valid until the next Offer; a
// steady in-order stream allocates nothing.
func (b *Inbox) Offer(gen int64, reset bool, first int64, count int, payload any) []Delivery {
	if b.killed {
		b.Stale++
		return nil
	}
	if gen < b.gen || (gen == b.gen && !b.open) {
		b.Stale++ // superseded generation, or remnant of a dropped stream
		return nil
	}
	if gen == b.gen && b.open && first+int64(count) <= b.applied+1 {
		b.Stale++ // pure replay of an applied range
		return nil
	}
	b.pending = append(b.pending, pendingBatch{gen: gen, reset: reset, first: first, count: count, payload: payload})

	out := clearDeliveries(b.out)
	for {
		idx := -1
		for i, p := range b.pending {
			ready := (p.gen == b.gen && b.open && p.first == b.applied+1) ||
				(p.reset && p.first == 1 && p.gen > b.gen)
			if ready && (idx < 0 || p.gen < b.pending[idx].gen ||
				(p.gen == b.pending[idx].gen && p.first < b.pending[idx].first)) {
				idx = i
			}
		}
		if idx < 0 {
			b.out = out
			return out
		}
		p := b.pending[idx]
		b.pending = slices.Delete(b.pending, idx, idx+1) // clears the vacated slot
		if p.reset && (p.gen > b.gen || !b.open) {
			b.gen, b.applied, b.open = p.gen, 0, true
			// Older-generation stragglers can never apply now.
			kept := b.pending[:0]
			for _, q := range b.pending {
				if q.gen >= b.gen {
					kept = append(kept, q)
				} else {
					b.Stale++
				}
			}
			clear(b.pending[len(kept):])
			b.pending = kept
			out = append(out, Delivery{Reset: true, Payload: p.payload})
		} else {
			out = append(out, Delivery{Payload: p.payload})
		}
		b.applied = p.first + int64(p.count) - 1
	}
}

// clearDeliveries empties a delivery buffer for reuse, dropping the
// payload references it holds.
func clearDeliveries(out []Delivery) []Delivery {
	clear(out)
	return out[:0]
}

// Dedup is the receiver-side duplicate filter of one unordered reliable
// channel: a cumulative watermark plus a sparse set of seen sequence
// numbers above it. Unlike Inbox it imposes no delivery order — the
// overlay's end-to-end channels deliver messages as they arrive and only
// need each sequence number to pass exactly once; ordering, where it
// matters, is the application layer's business (version counters,
// commutative folds).
type Dedup struct {
	cum    uint64 // every sequence number <= cum has been seen
	sparse map[uint64]struct{}
}

// Cum returns the cumulative watermark: every sequence number up to and
// including it has been seen. Acks carry this value.
func (d *Dedup) Cum() uint64 { return d.cum }

// Outstanding returns the number of sequence numbers seen above the
// cumulative watermark — the out-of-order backlog the filter is holding.
// Zero means every seen sequence number is contiguous. Observability
// uses it to annotate acks with how much reordering a channel is
// masking.
func (d *Dedup) Outstanding() int { return len(d.sparse) }

// Seen reports whether seq has already passed the filter.
func (d *Dedup) Seen(seq uint64) bool {
	if seq <= d.cum {
		return true
	}
	_, ok := d.sparse[seq]
	return ok
}

// Mark records seq as seen and reports whether this was its first
// passage (false = duplicate, the caller must drop the delivery). The
// watermark advances over any contiguous run the sparse set completes.
func (d *Dedup) Mark(seq uint64) bool {
	if d.Seen(seq) {
		return false
	}
	if seq == d.cum+1 {
		d.cum = seq
		for {
			if _, ok := d.sparse[d.cum+1]; !ok {
				break
			}
			d.cum++
			delete(d.sparse, d.cum)
		}
		return true
	}
	if d.sparse == nil {
		d.sparse = make(map[uint64]struct{})
	}
	d.sparse[seq] = struct{}{}
	return true
}
