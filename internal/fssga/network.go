package fssga

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Network is a running FSSGA system: a graph whose live nodes each hold a
// state and share one automaton. The graph may shrink between steps
// (decreasing benign faults); dead nodes are frozen and skipped.
//
// Every execution path reads the topology through an immutable CSR
// snapshot (graph.CSR): rounds walk two flat int32 arrays instead of
// making per-node Alive/Degree/SortedNeighbors calls, and the snapshot
// is re-fetched at each round boundary so fault injection between (or
// at the start of) rounds is observed exactly once, by the next round.
type Network[S comparable] struct {
	// G is the (mutable) topology. Callers may remove nodes/edges between
	// steps to inject faults; they must never grow it. G is nil for
	// networks built by NewFromCSR, whose topology is a static snapshot.
	G *graph.Graph

	csr *graph.CSR // static topology when G == nil (NewFromCSR)

	auto   Automaton[S]
	states []S
	next   []S // scratch buffer for synchronous rounds
	rngs   []*rand.Rand

	// Interned states (see intern.go): ids[v] is the table id of
	// states[v], kept in step with it wherever a state is written;
	// nextIDs is the id twin of next, allocated by the first full round.
	tab     internTable[S]
	ids     []int32
	nextIDs []int32

	// seed is the master seed the per-node streams derive from; srcs
	// are the counting sources behind rngs (same index). rngUsed flips
	// the first time any node stream materializes its generator, so
	// deterministic runs can skip RNG snapshot/restore work entirely.
	seed    int64
	srcs    []*lazySource
	rngUsed atomic.Bool

	// sat is auto when hub aggregate trees are possible (see agg.go): a
	// SaturatingAutomaton with at most aggMaxStates states.
	sat SaturatingAutomaton[S]

	serial  *viewScratch[S]   // shared by all serial execution paths
	workers []*viewScratch[S] // one per worker of the shard pool
	probe   *rand.Rand        // Quiescent's reusable throwaway stream

	// Persistent shard pool for parallel rounds (see shard.go). poolMu
	// guards creating/replacing/closing the pool so rounds racing Close
	// stay defined; owner holds the finalizer that stops the pool of an
	// abandoned network; roundActive rejects concurrent rounds on the
	// same network with ErrConcurrentRound; rngSnap is the supervisor's
	// reusable round-start RNG position scratch (see supervisor.go).
	pool        *shardPool
	owner       *poolOwner
	poolMu      sync.Mutex
	roundActive atomic.Bool
	rngSnap     []uint64

	// Serial frontier round mode (see frontier.go). The bool arrays are
	// dirty flags, each shadowed by a compact list of its set positions
	// so a steady-state round is O(frontier), not O(n); frontChanges is
	// the round's buffered sparse write-back.
	front         []bool
	frontNext     []bool
	frontList     []int32
	frontNextList []int32
	frontChanges  []frontChange[S]
	frontierOK    bool
	frontCSR      *graph.CSR

	// Shard-granular frontier state for parallel frontier rounds (see
	// shard.go).
	shardFront shardFrontier

	// Divide-and-conquer view aggregation for high-degree nodes (see
	// agg.go): non-nil once a round ran with a hub-tree automaton (sat);
	// rebuilt whenever the CSR snapshot or cutoff changes.
	agg       *aggState[S]
	aggCutoff int

	// Rounds counts completed synchronous rounds; Activations counts
	// single-node asynchronous activations.
	Rounds      int
	Activations int

	// OnRound, if non-nil, is invoked after every completed synchronous
	// round with the round number (1-based).
	OnRound func(round int)

	// OnBeforeRound, if non-nil, is invoked at the start of every
	// synchronous round — before the snapshot σ is read — with the
	// upcoming round number (Rounds+1). Mutating the topology inside the
	// hook has exactly the semantics of calling faults.Injector.Advance
	// just before the round: the killed nodes are frozen and the
	// survivors' views for this round already exclude them. Fault
	// adversaries (internal/chaos) deliver kills through this hook.
	OnBeforeRound func(round int)
}

// New creates a network over g running auto, with node v initialized to
// init(v). Every node gets an independent deterministic random stream
// derived from seed, so runs are reproducible and independent of execution
// order and worker count.
//
// Views are built by counting interned state ids (see intern.go),
// whatever optional interfaces auto implements.
func New[S comparable](g *graph.Graph, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	net := newNetwork[S](g, g.CSR(), auto, init, seed)
	net.csr = nil // always re-snapshot from the mutable graph
	return net
}

// NewFromCSR creates a network directly over an immutable CSR snapshot,
// bypassing the mutable graph.Graph entirely. This is the entry point
// for million-node topologies built by the streaming generators
// (graph.GridCSR, graph.TorusCSR, graph.CycleCSR): no per-node
// adjacency slices are ever materialized and the topology is fixed for
// the network's lifetime — fault injection needs a mutable graph, so
// use New for that. The G field of the returned network is nil.
//
// Execution semantics, view representations, and per-node random
// streams are identical to New over a graph with the same topology:
// given equal seeds the two produce bit-identical runs.
func NewFromCSR[S comparable](c *graph.CSR, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	return newNetwork[S](nil, c, auto, init, seed)
}

// newNetwork is the shared constructor: c is the initial topology
// snapshot (kept as the static topology iff g is nil).
func newNetwork[S comparable](g *graph.Graph, c *graph.CSR, auto Automaton[S], init func(v int) S, seed int64) *Network[S] {
	n := c.Cap()
	net := &Network[S]{
		G:      g,
		csr:    c,
		auto:   auto,
		states: make([]S, n),
		next:   make([]S, n),
		rngs:   make([]*rand.Rand, n),
		seed:   seed,
		srcs:   make([]*lazySource, n),
		tab:    newInternTable[S](),
		ids:    make([]int32, n),
	}
	if sa, ok := auto.(SaturatingAutomaton[S]); ok {
		if k := sa.NumStates(); k > 0 && k <= aggMaxStates {
			net.sat = sa
			net.tab.index, net.tab.k = sa.StateIndex, k
		}
	}
	for v := 0; v < n; v++ {
		net.srcs[v] = &lazySource{seed: mix(seed, int64(v)), used: &net.rngUsed}
		net.rngs[v] = rand.New(net.srcs[v])
		if c.Alive(v) {
			net.states[v] = init(v)
		}
	}
	net.internAll()
	return net
}

// internAll re-derives every node's id from its state. Runs of equal
// states (a uniform initial configuration) reuse the previous id without
// a table lookup.
func (net *Network[S]) internAll() {
	for v, s := range net.states {
		if v > 0 && s == net.states[v-1] {
			net.ids[v] = net.ids[v-1]
			continue
		}
		net.ids[v] = net.tab.intern(s)
	}
}

// topo returns the current topology snapshot: the static CSR for
// NewFromCSR networks, or a lazily (re)built snapshot of the mutable
// graph — pointer-stable while the graph is unmutated, fresh after any
// fault, so each round observes exactly the topology at its start.
//
//fssga:hotpath
func (net *Network[S]) topo() *graph.CSR {
	if net.G != nil {
		//fssga:alloc(CSR is pointer-stable while the graph is unmutated; a rebuild is paid once per fault)
		return net.G.CSR()
	}
	return net.csr
}

// mix derives a per-node seed from the master seed with a SplitMix64-style
// finalizer so nearby seeds give unrelated streams.
func mix(seed, v int64) int64 {
	z := uint64(seed) + uint64(v)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// DenseViews reports whether views are built on dense multiplicity
// vectors: always, since every network interns its states.
func (net *Network[S]) DenseViews() bool { return true }

// State returns the current state of node v (meaningless for dead nodes).
func (net *Network[S]) State(v int) S { return net.states[v] }

// SetState overrides the state of node v; used to set up distinguished
// initial conditions (e.g. "one node is RED").
func (net *Network[S]) SetState(v int, s S) {
	net.states[v] = s
	net.ids[v] = net.tab.intern(s)
	net.invalidateFrontiers() // out-of-band change: frontier bookkeeping is stale
	net.invalidateAgg()       // ...and so are the hub aggregate trees
}

// States returns the internal state slice (indexed by node ID). Callers
// must treat it as read-only.
func (net *Network[S]) States() []S { return net.states }

// Seed returns the master seed the per-node random streams derive from.
func (net *Network[S]) Seed() int64 { return net.seed }

// Topology returns the network's current immutable topology snapshot:
// the static CSR for NewFromCSR networks, or a snapshot of the mutable
// graph as of now. Checkpointing uses its content hash to verify that a
// restore target matches the checkpointed topology.
func (net *Network[S]) Topology() *graph.CSR { return net.topo() }

// RNGDrawn reports whether any node's random stream has ever been
// drawn from. Deterministic automata never draw, so their networks
// report false forever and checkpoints can omit stream positions.
func (net *Network[S]) RNGDrawn() bool { return net.rngUsed.Load() }

// RNGPositions returns the per-node random stream positions (number of
// draws consumed, indexed by node ID), or nil if no stream has ever
// been drawn from — the all-zeros vector that nil denotes restores
// for free. The returned slice is freshly allocated.
func (net *Network[S]) RNGPositions() []uint64 {
	if !net.rngUsed.Load() {
		return nil
	}
	pos := make([]uint64, len(net.srcs))
	for v, s := range net.srcs {
		pos[v] = s.position()
	}
	return pos
}

// RestoreRNGPositions rewinds every per-node stream to its seed and
// fast-forwards it to the given position, so subsequent draws are
// bit-identical to a run that consumed exactly pos[v] draws at node v.
// A nil pos resets all streams to their start. Lengths must match.
func (net *Network[S]) RestoreRNGPositions(pos []uint64) error {
	if pos == nil {
		for _, s := range net.srcs {
			s.rewind(0)
		}
		return nil
	}
	if len(pos) != len(net.srcs) {
		return fmt.Errorf("fssga: RestoreRNGPositions got %d positions for %d nodes", len(pos), len(net.srcs))
	}
	for v, s := range net.srcs {
		s.rewind(pos[v])
	}
	return nil
}

// RestoreStates overwrites the full state vector and round counter,
// e.g. from a checkpoint. The slice length must equal the network's
// node capacity. Frontier bookkeeping is invalidated; the topology is
// NOT restored — callers must reconstruct it (and any faults applied to
// it) before restoring states, which internal/checkpoint verifies via
// the topology content hash.
func (net *Network[S]) RestoreStates(states []S, rounds int) error {
	if len(states) != len(net.states) {
		return fmt.Errorf("fssga: RestoreStates got %d states for %d nodes", len(states), len(net.states))
	}
	if rounds < 0 {
		return fmt.Errorf("fssga: RestoreStates got negative round counter %d", rounds)
	}
	copy(net.states, states)
	net.internAll()
	net.Rounds = rounds
	net.invalidateFrontiers()
	net.invalidateAgg()
	return nil
}

// invalidateFrontiers marks both the node-granular and the
// shard-granular frontier bookkeeping stale, forcing the next frontier
// round (serial or parallel) to re-step every node.
func (net *Network[S]) invalidateFrontiers() {
	net.frontierOK = false
	net.shardFront.ok = false
}

// Activate performs one asynchronous activation of node v (no-op for dead
// or isolated nodes, since SM functions are defined on Q^+ only).
//
//fssga:hotpath
func (net *Network[S]) Activate(v int) {
	c := net.topo()
	if v < 0 || v >= c.Cap() {
		return
	}
	nbrs := c.Neighbors(v)
	if len(nbrs) == 0 {
		return
	}
	//fssga:alloc(ensureAgg builds the aggregation tree once per topology snapshot, amortized over all rounds)
	net.ensureAgg(c)
	old := net.states[v]
	view := net.viewFor(net.serialScratch(), v, nbrs)
	//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
	if s := net.auto.Step(old, view, net.rngs[v]); s != old {
		net.states[v] = s
		net.ids[v] = net.tab.intern(s)
		if net.aggActive() {
			net.agg.noteChanged(int32(v))
		}
	}
	net.Activations++
	net.invalidateFrontiers()
}

// SyncRound performs one synchronous round: every live node computes its
// successor state from the same snapshot σ, then all states switch
// simultaneously (Section 3.4's synchronous model).
//
// Dead and isolated nodes are recognized by an empty CSR neighbour row
// (dead nodes are isolated by the graph invariant), so the hot loop
// carries no per-node Alive/Degree calls at all.
//
//fssga:hotpath
func (net *Network[S]) SyncRound() {
	net.beforeRound()
	c := net.topo()
	//fssga:alloc(ensureAgg builds the aggregation tree once per topology snapshot, amortized over all rounds)
	net.ensureAgg(c)
	sc := net.serialScratch()
	nextIDs := net.nextIDBuffer()
	for v := 0; v < c.Cap(); v++ {
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			net.next[v] = net.states[v]
			nextIDs[v] = net.ids[v]
			continue
		}
		view := net.viewFor(sc, v, nbrs)
		//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
		s := net.auto.Step(net.states[v], view, net.rngs[v])
		net.next[v] = s
		nextIDs[v] = net.nextID(v, s)
	}
	net.commitRound()
}

// nextIDBuffer returns nextIDs, allocating it on first use: frontier
// rounds and activations never need it.
//
//fssga:hotpath
func (net *Network[S]) nextIDBuffer() []int32 {
	if net.nextIDs == nil {
		//fssga:alloc(one-time lazy construction of the successor id buffer)
		net.nextIDs = make([]int32, len(net.ids))
	}
	return net.nextIDs
}

// nextID returns the id of s, node v's successor state in a full round:
// ids[v] when the state is unchanged, s's id when the table holds it, and
// -1 when s is new (commitIDs interns it). It only reads the table, so
// the workers of a parallel round call it concurrently.
//
//fssga:hotpath
func (net *Network[S]) nextID(v int, s S) int32 {
	if s == net.states[v] {
		return net.ids[v]
	}
	if id, ok := net.tab.byState[s]; ok {
		return id
	}
	return -1
}

// beforeRound fires the pre-round hook with the upcoming round number.
// Every synchronous-round entry point calls it exactly once, before the
// state snapshot is read, so hook-driven topology mutations behave like
// pre-round fault injection.
//
//fssga:hotpath
func (net *Network[S]) beforeRound() {
	if net.OnBeforeRound != nil {
		//fssga:alloc(user hook runs outside the zero-alloc contract; nil in steady-state runs)
		net.OnBeforeRound(net.Rounds + 1)
	}
}

// commitRound publishes next as the new state vector and fires the round
// hooks. Full rounds do not maintain frontier bookkeeping, so any frontier
// state becomes stale.
//
//fssga:hotpath
func (net *Network[S]) commitRound() {
	net.commitIDs(0, len(net.states))
	net.states, net.next = net.next, net.states
	net.ids, net.nextIDs = net.nextIDs, net.ids
	net.Rounds++
	net.invalidateFrontiers()
	if net.OnRound != nil {
		//fssga:alloc(user hook runs outside the zero-alloc contract; nil in steady-state runs)
		net.OnRound(net.Rounds)
	}
}

// commitIDs settles the successor ids of a full round over [lo, hi),
// before the swap: states new to the table are interned in node order,
// and the hub-tree leaves of every changed node (ids are canonical, so
// the id differs) are marked dirty.
//
//fssga:hotpath
func (net *Network[S]) commitIDs(lo, hi int) {
	aggOn := net.aggActive()
	for v := lo; v < hi; v++ {
		id := net.nextIDs[v]
		if id == net.ids[v] {
			continue
		}
		if id < 0 {
			net.nextIDs[v] = net.tab.intern(net.next[v])
		}
		if aggOn {
			net.agg.noteChanged(int32(v))
		}
	}
}

// RunSync runs synchronous rounds until done returns true (checked after
// each round) or maxRounds is reached. It reports the number of rounds run
// and whether done fired. A nil done runs to the round limit.
func (net *Network[S]) RunSync(maxRounds int, done func(net *Network[S]) bool) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		net.SyncRound()
		if done != nil && done(net) {
			return r + 1, true
		}
	}
	return maxRounds, done == nil
}

// Quiescent reports whether one more synchronous round would leave every
// state unchanged. It is meaningful only for deterministic automata; it
// evaluates successor states against one throwaway random stream (which a
// deterministic automaton must not consult) so the real per-node streams
// are not consumed.
//
//fssga:hotpath
func (net *Network[S]) Quiescent() bool {
	c := net.topo()
	//fssga:alloc(ensureAgg builds the aggregation tree once per topology snapshot, amortized over all rounds)
	net.ensureAgg(c)
	sc := net.serialScratch()
	if net.probe == nil {
		//fssga:alloc(one-time lazy construction of the reusable probe stream; reseeded in place afterwards)
		net.probe = rand.New(rand.NewSource(1))
	} else {
		//fssga:alloc(Seed delegates to the source in place; rand.Rand is outside the allocation whitelist)
		net.probe.Seed(1)
	}
	for v := 0; v < c.Cap(); v++ {
		nbrs := c.Neighbors(v)
		if len(nbrs) == 0 {
			continue
		}
		view := net.viewFor(sc, v, nbrs)
		//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
		if net.auto.Step(net.states[v], view, net.probe) != net.states[v] {
			return false
		}
	}
	return true
}

// CountStates returns the multiset of live-node states.
func (net *Network[S]) CountStates() map[S]int {
	c := net.topo()
	counts := make(map[S]int)
	for v := 0; v < c.Cap(); v++ {
		if c.Alive(v) {
			counts[net.states[v]]++
		}
	}
	return counts
}
