package fssga

// DenseAutomaton is an optional extension of Automaton for automata whose
// state space admits a small dense enumeration. The engine consults it
// only through SaturatingAutomaton: hub aggregate trees (agg.go) keep
// one saturated counter per StateIndex. Ordinary views never need it —
// every network interns its states to dense ids (intern.go) and builds
// every view on an id-indexed multiplicity vector — so an automaton that
// does not implement it runs on exactly the same view path.
//
// Contract: StateIndex must be a pure function, safe for concurrent use,
// and must return a value in [0, NumStates()) for every state that can
// occur in the network (initial states and everything Step can produce);
// the engine panics when a state it interns for a hub-tree automaton
// indexes out of range. Distinct states must map to distinct indices,
// otherwise hub trees merge their counts and observations are silently
// wrong. NumStates must be constant over the automaton's lifetime.
type DenseAutomaton[S comparable] interface {
	Automaton[S]

	// NumStates returns the size of the dense state enumeration. An
	// automaton whose state space is unbounded or too large to enumerate
	// may return a huge value (e.g. math.MaxInt): hub trees are built only
	// for state spaces of at most aggMaxStates.
	NumStates() int

	// StateIndex maps a state to its dense index in [0, NumStates()).
	StateIndex(s S) int
}

// viewScratch is a per-worker reusable workspace for building Views
// without allocating. Each worker of the shard pool owns one; all serial
// paths share one. (No neighbour buffer: views are built directly off
// the immutable CSR neighbour rows, which need no copying.)
type viewScratch[S comparable] struct {
	view View[S]
	ents []viewEntry[S] // the entries of the view built last, reused at capacity

	// pos[id] is 1 + the position of state id in ents while a view is
	// being built, and 0 for every id between builds: resetting costs
	// O(distinct states), not O(table).
	pos []int32
}

// buildView assembles a node's symmetric view of the neighbours listed
// in nbrs (a CSR neighbour row) into sc by counting their interned ids;
// the table is frozen for the round, so parallel workers read it freely.
// The returned View aliases the scratch buffers: it is valid only until
// the next build on the same scratch, which is exactly the duration of
// one Step call.
//
//fssga:hotpath
func (net *Network[S]) buildView(sc *viewScratch[S], nbrs []int32) *View[S] {
	ids, tab := net.ids, net.tab.ents
	if len(sc.pos) < len(tab) {
		//fssga:alloc(the position index doubles as the intern table grows, so it is paid once per doubling)
		sc.pos = make([]int32, 2*len(tab))
	}
	ents := sc.ents[:0]
	for _, u := range nbrs {
		id := ids[u]
		p := sc.pos[id]
		if p == 0 {
			//fssga:alloc(the entry list grows to the distinct-state count once, then is reused at capacity)
			ents = append(ents, viewEntry[S]{state: tab[id].state, id: id})
			p = int32(len(ents))
			sc.pos[id] = p
		}
		ents[p-1].n++
	}
	for _, e := range ents {
		sc.pos[e.id] = 0
	}
	sc.ents = ents
	sc.view = View[S]{total: len(nbrs), ents: ents}
	return &sc.view
}

// serialScratch returns the shared workspace of the serial execution
// paths (SyncRound, Activate, Quiescent, frontier rounds), creating it on
// first use.
//
//fssga:hotpath
func (net *Network[S]) serialScratch() *viewScratch[S] {
	if net.serial == nil {
		//fssga:alloc(one-time lazy construction of the shared serial workspace)
		net.serial = &viewScratch[S]{}
	}
	return net.serial
}

// ensureWorkers grows the per-worker scratch pool to at least n entries.
func (net *Network[S]) ensureWorkers(n int) {
	for len(net.workers) < n {
		net.workers = append(net.workers, &viewScratch[S]{})
	}
}
