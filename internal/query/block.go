package query

import "sync"

// A rewritten query is allocated as one block: the Query header plus
// inline arrays for the slices the substitution actually changes — the
// select list when a substituted column appears in it, the FROM list
// when the substituted relation sits in its middle, and the selection
// list. Each block type fits its child exactly (one type per
// combination of array lengths), because padding a header with unused
// inline capacity moves every stored rewrite into a larger size class.
// Slices the substitution leaves untouched, or shrinks at either end,
// are shared with the parent instead; a slice longer than its inline
// maximum falls back to make.
const (
	maxInlineSelect = 4
	maxInlineRels   = 3
	maxInlineSels   = 4
)

// inline0 .. inline4 are the inline arrays of a block, generic over the
// element type so one set serves all three slice kinds.
type (
	inline0[T any] struct{}
	inline1[T any] [1]T
	inline2[T any] [2]T
	inline3[T any] [3]T
	inline4[T any] [4]T
)

func (*inline0[T]) slice() []T   { return nil }
func (a *inline1[T]) slice() []T { return a[:] }
func (a *inline2[T]) slice() []T { return a[:] }
func (a *inline3[T]) slice() []T { return a[:] }
func (a *inline4[T]) slice() []T { return a[:] }

// slots constrains a pointer to an inline array holding Ts.
type slots[T, A any] interface {
	*A
	slice() []T
}

// block is one rewrite allocation: the arrays, then the header (last,
// so an empty trailing array adds no padding).
type block[S any, PS slots[SelectItem, S], R any, PR slots[string, R], C any, PC slots[SelCond, C]] struct {
	sel  S
	rels R
	sels C
	q    Query
}

// rewriteBlock is the shape-independent view of a block, stored in the
// header's back-pointer so Release can recycle the whole allocation.
type rewriteBlock interface {
	carve() (q *Query, sel []SelectItem, rels []string, sels []SelCond)
	pool() *sync.Pool
	zero()
}

func (b *block[S, PS, R, PR, C, PC]) carve() (*Query, []SelectItem, []string, []SelCond) {
	return &b.q, PS(&b.sel).slice(), PR(&b.rels).slice(), PC(&b.sels).slice()
}

func (b *block[S, PS, R, PR, C, PC]) pool() *sync.Pool {
	return &blockPools[len(PS(&b.sel).slice())][len(PR(&b.rels).slice())][len(PC(&b.sels).slice())]
}

func (b *block[S, PS, R, PR, C, PC]) zero() { *b = block[S, PS, R, PR, C, PC]{} }

// blockPools holds one free list per block shape, indexed by the inline
// select, FROM and selection lengths.
var blockPools [maxInlineSelect + 1][maxInlineRels + 1][maxInlineSels + 1]sync.Pool

func init() {
	regSelect[inline0[SelectItem]](0)
	regSelect[inline1[SelectItem]](1)
	regSelect[inline2[SelectItem]](2)
	regSelect[inline3[SelectItem]](3)
	regSelect[inline4[SelectItem]](4)
}

func regSelect[S any, PS slots[SelectItem, S]](ns int) {
	regRels[S, PS, inline0[string]](ns, 0)
	regRels[S, PS, inline1[string]](ns, 1)
	regRels[S, PS, inline2[string]](ns, 2)
	regRels[S, PS, inline3[string]](ns, 3)
}

func regRels[S any, PS slots[SelectItem, S], R any, PR slots[string, R]](ns, nr int) {
	regShape[S, PS, R, PR, inline0[SelCond]](ns, nr, 0)
	regShape[S, PS, R, PR, inline1[SelCond]](ns, nr, 1)
	regShape[S, PS, R, PR, inline2[SelCond]](ns, nr, 2)
	regShape[S, PS, R, PR, inline3[SelCond]](ns, nr, 3)
	regShape[S, PS, R, PR, inline4[SelCond]](ns, nr, 4)
}

func regShape[S any, PS slots[SelectItem, S], R any, PR slots[string, R], C any, PC slots[SelCond, C]](ns, nr, nc int) {
	blockPools[ns][nr][nc].New = func() any { return new(block[S, PS, R, PR, C, PC]) }
}

// newBlock returns a zeroed block with exactly ns select, nr FROM and
// nc selection slots (each at most its inline maximum), carved into
// the header and its three arrays. The header's back-pointer is set.
func newBlock(ns, nr, nc int) (*Query, []SelectItem, []string, []SelCond) {
	b := blockPools[ns][nr][nc].Get().(rewriteBlock)
	q, sel, rels, sels := b.carve()
	q.blk = b
	return q, sel, rels, sels
}

// Release returns a rewritten query's block to its free list. Callers
// must guarantee that no reference to q escaped (a rewrite dropped
// without being sent anywhere) and that q has no live children: a
// child shares its parent's untouched slices, which may be the
// parent's inline arrays. Queries that are not rewrite blocks (input
// queries, clones) are left to the garbage collector.
func Release(q *Query) {
	b := q.blk
	if b == nil {
		return
	}
	p := b.pool()
	b.zero()
	p.Put(b)
}
