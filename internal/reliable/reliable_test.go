package reliable

import (
	"reflect"
	"testing"

	"rjoin/internal/id"
)

func payloads(ds []Delivery) []any {
	out := make([]any, len(ds))
	for i, d := range ds {
		out[i] = d.Payload
	}
	return out
}

// TestInboxInOrder: the common case — a snapshot head followed by
// incremental batches applies in order, once each.
func TestInboxInOrder(t *testing.T) {
	b := NewInbox()
	if got := b.Offer(1, true, 1, 2, "snap"); !reflect.DeepEqual(payloads(got), []any{"snap"}) || !got[0].Reset {
		t.Fatalf("snapshot head: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "a"); !reflect.DeepEqual(payloads(got), []any{"a"}) || got[0].Reset {
		t.Fatalf("first increment: %v", got)
	}
	if got := b.Offer(1, false, 4, 3, "b"); !reflect.DeepEqual(payloads(got), []any{"b"}) {
		t.Fatalf("second increment: %v", got)
	}
	if b.Applied() != 6 {
		t.Fatalf("applied %d, want 6", b.Applied())
	}
}

// TestInboxReplayIdempotent: redelivering any already-applied batch
// releases nothing and counts as stale.
func TestInboxReplayIdempotent(t *testing.T) {
	b := NewInbox()
	b.Offer(1, true, 1, 1, "snap")
	b.Offer(1, false, 2, 2, "a")
	for i := 0; i < 3; i++ {
		if got := b.Offer(1, false, 2, 2, "a"); len(got) != 0 {
			t.Fatalf("replay %d released %v", i, got)
		}
		if got := b.Offer(1, true, 1, 1, "snap"); len(got) != 0 {
			t.Fatalf("snapshot replay %d released %v", i, got)
		}
	}
	if b.Stale != 6 {
		t.Fatalf("stale count %d, want 6", b.Stale)
	}
	if b.Applied() != 3 {
		t.Fatalf("applied %d, want 3", b.Applied())
	}
}

// TestInboxReorderBuffers: a batch arriving before its predecessor is
// buffered and released in order once the gap fills — including the
// snapshot head arriving after its followers.
func TestInboxReorderBuffers(t *testing.T) {
	b := NewInbox()
	if got := b.Offer(1, false, 4, 2, "c"); len(got) != 0 {
		t.Fatalf("gap batch released early: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "b"); len(got) != 0 {
		t.Fatalf("gap batch released early: %v", got)
	}
	got := b.Offer(1, true, 1, 2, "snap")
	if !reflect.DeepEqual(payloads(got), []any{"snap", "b", "c"}) {
		t.Fatalf("fill released %v, want [snap b c]", payloads(got))
	}
	if !got[0].Reset || got[1].Reset || got[2].Reset {
		t.Fatalf("reset flags %v %v %v", got[0].Reset, got[1].Reset, got[2].Reset)
	}
}

// TestInboxGenerationSupersedes: a new generation's snapshot discards
// the old stream; stragglers of the old generation are dropped whether
// they arrive before or after it.
func TestInboxGenerationSupersedes(t *testing.T) {
	b := NewInbox()
	b.Offer(1, true, 1, 1, "old-snap")
	b.Offer(1, false, 2, 1, "old-a")
	if got := b.Offer(3, true, 1, 1, "new-snap"); !reflect.DeepEqual(payloads(got), []any{"new-snap"}) || !got[0].Reset {
		t.Fatalf("new generation snapshot: %v", got)
	}
	if got := b.Offer(1, false, 3, 1, "old-b"); len(got) != 0 {
		t.Fatalf("old-generation straggler released %v", got)
	}
	// Old straggler buffered before the new snapshot is purged by it.
	b2 := NewInbox()
	b2.Offer(1, true, 1, 1, "s1")
	if got := b2.Offer(1, false, 5, 1, "late"); len(got) != 0 {
		t.Fatal("gap released early")
	}
	if got := b2.Offer(2, true, 1, 1, "s2"); !reflect.DeepEqual(payloads(got), []any{"s2"}) {
		t.Fatalf("second snapshot: %v", got)
	}
	if got := b2.Offer(1, false, 2, 3, "fill"); len(got) != 0 {
		t.Fatalf("filling a purged gap released %v", got)
	}
}

// TestInboxDropAndKill: Drop closes the stream but a higher generation
// reopens it; Kill is terminal.
func TestInboxDropAndKill(t *testing.T) {
	b := NewInbox()
	b.Offer(1, true, 1, 1, "s")
	b.Drop()
	if b.Open() {
		t.Fatal("open after Drop")
	}
	if got := b.Offer(1, false, 2, 1, "tail"); len(got) != 0 {
		t.Fatalf("dropped stream accepted %v", got)
	}
	if got := b.Offer(2, true, 1, 1, "s2"); len(got) != 1 || !b.Open() {
		t.Fatalf("re-established stream rejected: %v open=%v", got, b.Open())
	}
	b.Kill()
	if got := b.Offer(3, true, 1, 1, "s3"); len(got) != 0 || b.Open() {
		t.Fatalf("killed inbox accepted %v", got)
	}
}

// TestStreamSequencing: Next hands out contiguous ranges.
func TestStreamSequencing(t *testing.T) {
	s := &Stream{gen: 1, next: 1}
	if first := s.Next(3); first != 1 {
		t.Fatalf("first range starts at %d", first)
	}
	if first := s.Next(2); first != 4 {
		t.Fatalf("second range starts at %d", first)
	}
}

// TestLinksSync: reconciliation reports additions (with fresh streams)
// and removals in deterministic order, and re-acquired targets get a
// strictly larger generation.
func TestLinksSync(t *testing.T) {
	l := NewLinks()
	added, removed := l.Sync([]id.ID{30, 10})
	if !reflect.DeepEqual(added, []id.ID{10, 30}) || removed != nil {
		t.Fatalf("initial sync: added %v removed %v", added, removed)
	}
	gen10 := l.Stream(10).Gen()
	added, removed = l.Sync([]id.ID{10, 20})
	if !reflect.DeepEqual(added, []id.ID{20}) || !reflect.DeepEqual(removed, []id.ID{30}) {
		t.Fatalf("second sync: added %v removed %v", added, removed)
	}
	if !reflect.DeepEqual(l.Targets(), []id.ID{10, 20}) {
		t.Fatalf("targets %v", l.Targets())
	}
	l.Sync([]id.ID{20})
	added, _ = l.Sync([]id.ID{10, 20})
	if len(added) != 1 || added[0] != 10 {
		t.Fatalf("re-add sync: %v", added)
	}
	if g := l.Stream(10).Gen(); g <= gen10 {
		t.Fatalf("re-acquired generation %d not above original %d", g, gen10)
	}
	// Unchanged sync is a no-op.
	added, removed = l.Sync([]id.ID{10, 20})
	if added != nil || removed != nil {
		t.Fatalf("steady-state sync: added %v removed %v", added, removed)
	}
}

// TestInboxInOrderZeroAlloc: once warmed, an in-order stream releases
// each batch through the inbox's reused result buffer without
// allocating.
func TestInboxInOrderZeroAlloc(t *testing.T) {
	b := NewInbox()
	payload := new(int)
	b.Offer(1, true, 1, 1, payload)
	next := int64(2)
	if n := testing.AllocsPerRun(100, func() {
		if got := b.Offer(1, false, next, 2, payload); len(got) != 1 || got[0].Payload != payload {
			t.Fatalf("in-order batch at %d not released: %v", next, got)
		}
		next += 2
	}); n != 0 {
		t.Fatalf("in-order Offer made %v allocations, want 0", n)
	}
}
