package fssga

// Frontier-driven rounds. For a *deterministic* automaton, a node's next
// state is a pure function of its own state and its neighbour multiset, so
// it can differ from the last round only if its own state or a
// neighbour's state changed in that round. The frontier round exploits
// this: it re-steps only nodes marked dirty by the previous round's
// changes, making quiesced regions free in diffusion workloads (census,
// BFS, two-colouring, shortest paths) while producing the exact state
// trajectory of full rounds.
//
// The frontier bookkeeping is invalidated — forcing one full re-step of
// every node — whenever states change outside a frontier round (SetState,
// Activate, full SyncRound/SyncRoundParallel, a parallel frontier round)
// or the topology shrinks (detected by CSR snapshot identity: every
// mutation produces a fresh snapshot).
//
// shard.go implements the same idea at shard granularity for the
// parallel engine (SyncRoundParallelFrontier): whole node ranges are
// skipped when neither they nor any range adjacent to them changed.

// frontChange is one node's pending state change in a serial frontier
// round: changes are buffered while the round reads the pre-round
// snapshot and written back only at commit, so the round never pays the
// O(n) copy-and-swap of the full engines.
type frontChange[S comparable] struct {
	v int32
	s S
}

// SyncRoundFrontier performs one frontier-driven synchronous round. It
// reports whether any state changed; a false return means the network was
// already quiescent, and in that case nothing is committed: Rounds is not
// incremented and OnRound does not fire, so a run driven by
// SyncRoundFrontier counts exactly the rounds a SyncRound loop guarded by
// Quiescent would have executed.
//
// The round costs O(|frontier| + Σ deg(frontier)), not O(n): the dirty
// flags carry a compact vertex list, changes commit as a sparse
// write-back into the state array, and a quiescent network re-probes in
// O(1). Combined with the aggregate trees (agg.go) this is what makes a
// steady-state hub round O(churn · log deg) instead of O(n + deg).
//
// Deterministic automata only: a Step that consults its random stream
// desynchronizes the per-node streams when quiesced nodes are skipped.
//
//fssga:hotpath
func (net *Network[S]) SyncRoundFrontier() (changed bool) {
	// The pre-round hook fires before the staleness check below, so any
	// topology shrink it performs yields a fresh CSR snapshot and forces
	// a full re-step. On a quiescent round (no commit) the hook fires
	// again with the same round number next call.
	net.beforeRound()
	c := net.topo()
	//fssga:alloc(ensureAgg builds the aggregation tree once per topology snapshot, amortized over all rounds)
	net.ensureAgg(c)
	n := c.Cap()
	if len(net.front) != n {
		//fssga:alloc(dirty-flag arrays are rebuilt once per topology size change, amortized over all rounds)
		net.front = make([]bool, n)
		//fssga:alloc(dirty-flag arrays are rebuilt once per topology size change, amortized over all rounds)
		net.frontNext = make([]bool, n)
		net.frontList = net.frontList[:0]
		net.frontNextList = net.frontNextList[:0]
		net.frontierOK = false
	}
	full := !net.frontierOK || net.frontCSR != c
	net.frontierOK = true
	net.frontCSR = c

	sc := net.serialScratch()
	changes := net.frontChanges[:0]
	net.frontNextList = net.frontNextList[:0]
	mark := func(u int32) {
		if !net.frontNext[u] {
			net.frontNext[u] = true
			//fssga:alloc(frontNextList grows to the frontier size once, then is reused at capacity across rounds)
			net.frontNextList = append(net.frontNextList, u)
		}
	}
	step := func(v int) {
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			return
		}
		view := net.viewFor(sc, v, nbrs)
		//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
		s := net.auto.Step(net.states[v], view, net.rngs[v])
		if s != net.states[v] {
			//fssga:alloc(the change buffer grows to the per-round change count once, then is reused at capacity)
			changes = append(changes, frontChange[S]{v: int32(v), s: s})
			// The change is visible to v itself and its neighbours next
			// round.
			mark(int32(v))
			for _, u := range nbrs {
				mark(u)
			}
		}
	}
	if full {
		for v := 0; v < n; v++ {
			step(v)
		}
	} else {
		for _, v := range net.frontList {
			step(int(v))
		}
	}
	// Retire the consumed frontier (its flags must read false next round)
	// and adopt the one just built.
	for _, v := range net.frontList {
		net.front[v] = false
	}
	net.front, net.frontNext = net.frontNext, net.front
	net.frontList, net.frontNextList = net.frontNextList, net.frontList
	if len(changes) == 0 {
		// Quiescent: the empty frontier stays valid, so repeated calls
		// cost O(1) and build no views at all.
		net.frontChanges = changes
		return false
	}
	// Tree leaves are marked only now, at commit: a mark consumed by a
	// later hubView in the same round would rescan pre-commit states and
	// then wrongly clear itself.
	aggOn := net.aggActive()
	for _, ch := range changes {
		net.states[ch.v] = ch.s
		net.ids[ch.v] = net.tab.intern(ch.s)
		if aggOn {
			net.agg.noteChanged(ch.v)
		}
	}
	net.frontChanges = changes[:0]
	net.Rounds++
	net.shardFront.ok = false // shard-granular bookkeeping is now stale
	if net.OnRound != nil {
		//fssga:alloc(user hook runs outside the zero-alloc contract; nil in steady-state runs)
		net.OnRound(net.Rounds)
	}
	return true
}

// RunSyncUntilQuiescent runs synchronous rounds until a round changes no
// state, up to maxRounds. For deterministic automata only. Rounds are
// frontier-driven: after the first round only nodes whose neighbourhood
// changed are re-stepped, which is what makes diffusion algorithms'
// convergence tails cheap; the resulting states, round counts and OnRound
// invocations are identical to a full-round loop guarded by Quiescent.
func (net *Network[S]) RunSyncUntilQuiescent(maxRounds int) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		if !net.SyncRoundFrontier() {
			return r, true
		}
	}
	return maxRounds, net.Quiescent()
}
