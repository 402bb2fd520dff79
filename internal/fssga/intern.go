package fssga

import (
	"fmt"
	"math"
)

// internTable gives every state the network has held a dense int32 id.
// A node observes only the multiplicity vector of its neighbours' states
// over the finite Q (Definitions 3.1 and 3.10); ids index that vector,
// so a view counts ids[u] over a CSR row with no hashing and no
// automaton call per neighbour. States are interned where they enter
// the state vector (construction, SetState, RestoreStates, Activate,
// round commits). The table is frozen while a round builds views:
// parallel workers only look states up, and new states are inserted
// serially at commit, in node order. It only grows; a finite-state
// automaton bounds it by |Q|.
type internTable[S comparable] struct {
	byState map[S]int32
	ents    []internEntry[S] // indexed by id

	// index and k are the automaton's StateIndex and NumStates when hub
	// trees are possible (agg.go), else nil and 0: each new state's index
	// is computed once, here, for the leaf scans to read.
	index func(S) int
	k     int

	limit int // id capacity: math.MaxInt32 (tests lower it)
}

// internEntry is one interned state with its StateIndex (-1 without an
// index).
type internEntry[S comparable] struct {
	state S
	sidx  int32
}

func newInternTable[S comparable]() internTable[S] {
	return internTable[S]{byState: make(map[S]int32), limit: math.MaxInt32}
}

// intern returns s's id, adding s if it is new. It panics past limit
// states and when StateIndex maps s outside [0, NumStates).
//
//fssga:hotpath
func (t *internTable[S]) intern(s S) int32 {
	if id, ok := t.byState[s]; ok {
		return id
	}
	if len(t.ents) >= t.limit {
		panic(fmt.Sprintf("fssga: intern table full: a network holds at most %d distinct states (int32 ids, limit math.MaxInt32)", t.limit))
	}
	e := internEntry[S]{state: s, sidx: -1}
	if t.index != nil {
		//fssga:alloc(StateIndex is called once per distinct state, not per neighbour; automaton dispatch through the stored func value)
		i := t.index(s)
		if i < 0 || i >= t.k {
			panic(fmt.Sprintf("fssga: StateIndex returned %d for state %v, want 0..%d", i, s, t.k-1))
		}
		e.sidx = int32(i)
	}
	id := int32(len(t.ents))
	//fssga:alloc(the table grows once per distinct state; a finite-state automaton bounds it by |Q|)
	t.ents = append(t.ents, e)
	t.byState[s] = id
	return id
}
