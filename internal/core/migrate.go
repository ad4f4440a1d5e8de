package core

import (
	"fmt"

	"rjoin/internal/chord"
	"rjoin/internal/id"
	"rjoin/internal/relation"
)

// MoveNode implements identifier movement (Karger–Ruhl, used by the
// paper's Figure 9 experiment): the node leaves its current ring
// position and rejoins at newID, keeping its RJoin state. Stored keys
// across the network are then re-homed to their current owners, which
// models the key handoff that accompanies an id change. It returns the
// node's new ring handle.
func (e *Engine) MoveNode(n *chord.Node, newID id.ID) (*chord.Node, error) {
	p, ok := e.procs[n.ID()]
	if !ok {
		return nil, fmt.Errorf("core: node %s has no processor", n.ID())
	}
	e.net.Detach(n)
	delete(e.procs, n.ID())
	e.ring.Leave(n)
	nn, err := e.ring.Join(newID)
	if err != nil {
		return nil, err
	}
	e.ring.BuildPerfect()
	p.node = nn
	e.procs[nn.ID()] = p
	e.net.Attach(nn, p)
	// The physical node keeps its accumulated load; only its ring
	// position changed.
	e.QPL.Rename(n.ID(), nn.ID())
	e.SL.Rename(n.ID(), nn.ID())
	e.net.RenameNode(n.ID(), nn.ID())
	e.replForgetOrigin(n.ID()) // mirrors of the vacated identifier are dead
	e.RehomeKeys()
	return nn, nil
}

// RehomeKeys moves every stored query, tuple and ALTT entry to the node
// currently responsible for its key. It must be called after membership
// changes that redistribute the identifier space (joins, id movement)
// so that subsequent deliveries find the stored state. It returns the
// number of list entries moved.
func (e *Engine) RehomeKeys() int {
	moved := 0
	owner := func(key relation.Key) *Proc {
		o := e.ring.Owner(key.ID())
		if o == nil {
			return nil
		}
		return e.procs[o.ID()]
	}
	for _, p := range e.procs {
		for key, list := range p.queries {
			dst := owner(key)
			if dst == nil || dst == p {
				continue
			}
			// Replication identities are per-proc namespaces: a moved
			// query must be re-numbered at its destination, or the
			// resync snapshot would emit colliding sqIDs.
			for i := range list {
				list[i].replID = 0
			}
			dst.queries[key] = append(dst.queries[key], list...)
			delete(p.queries, key)
			moved += len(list)
		}
		for key, list := range p.tuples {
			dst := owner(key)
			if dst == nil || dst == p {
				continue
			}
			dst.tuples[key] = append(dst.tuples[key], list...)
			delete(p.tuples, key)
			moved += len(list)
		}
		for key, list := range p.altt {
			dst := owner(key)
			if dst == nil || dst == p {
				continue
			}
			dst.altt[key] = append(dst.altt[key], list...)
			delete(p.altt, key)
			moved += len(list)
		}
	}
	// Identifier movement redistributes keys wholesale; incremental
	// drop/add mirroring cannot track it, so replication rebuilds every
	// stream from a fresh snapshot.
	e.replResyncAll()
	return moved
}

// StoredOccupancy returns the node's instantaneous stored-entry count
// (live queries + tuples + ALTT entries), the quantity identifier
// movement balances.
func (e *Engine) StoredOccupancy(n *chord.Node) int {
	p, ok := e.procs[n.ID()]
	if !ok {
		return 0
	}
	total := 0
	for _, l := range p.queries {
		total += len(l)
	}
	for _, l := range p.tuples {
		total += len(l)
	}
	for _, l := range p.altt {
		total += len(l)
	}
	return total
}
