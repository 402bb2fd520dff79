// Package fssga implements the finite-state symmetric graph automaton
// model of Pritchard & Vempala (SPAA 2006), Definitions 3.10 and 3.11: a
// copy of one automaton inhabits every node of an undirected graph; when a
// node activates it reads its own state and the *multiset* of its
// neighbours' states and moves to a new state. The package provides the
// network simulator with synchronous, asynchronous and goroutine-parallel
// execution, and the symmetric NeighborView through which node programs
// observe their neighbourhood.
//
// Symmetry is enforced mechanically: a node program receives only a
// View — a multiset of neighbour states with count-capped and
// count-modulo observations — so it cannot depend on neighbour order or
// identity, exactly the mod-thresh characterization of Theorem 3.7.
package fssga

// View is the symmetric, finite observation of a node's neighbourhood: the
// multiset of neighbour states. All observation methods are functions of
// the multiplicity vector (μ_q) only, so any program written against View
// computes an SM function of its neighbours (Definition 3.1).
//
// Methods taking a cap return min(count, cap) — a thresh-style
// observation; CountMod is the mod-style observation. Programs must use
// constant caps and moduli to stay finite-state.
//
// A View has one of two internal representations:
//
//   - map mode: a map[S]int multiplicity map, built by NewView,
//     NewViewFromCounts and Remap for callers outside the engine;
//   - entry mode: one entry per distinct neighbour state with its
//     multiplicity. The engine builds every view it hands to Step this
//     way, from per-worker scratch, without allocating: linear scans
//     count interned state ids (intern.go), hub views read an aggregate
//     tree root (agg.go).
//
// Exactly one representation is non-empty, so each observation walks
// both with no mode switch.
//
// Views handed to Automaton.Step by the engine are backed by reusable
// scratch: they are valid only for the duration of the Step call and must
// not be retained.
type View[S comparable] struct {
	counts map[S]int // map mode (nil in entry mode)
	total  int
	ents   []viewEntry[S] // entry mode (nil in map mode)
}

// viewEntry is one distinct neighbour state of an entry-mode view.
type viewEntry[S comparable] struct {
	state S
	n     int32 // multiplicity
	id    int32 // interned id (linear scans; lets the builder reset its scratch)
}

// NewView builds a View from a slice of neighbour states. The slice order
// is irrelevant (only multiplicities are retained).
func NewView[S comparable](states []S) *View[S] {
	v := &View[S]{counts: make(map[S]int, len(states)), total: len(states)}
	for _, s := range states {
		v.counts[s]++
	}
	return v
}

// NewViewFromCounts builds a View directly from a multiplicity map. The map
// is not copied; callers must not mutate it afterwards.
func NewViewFromCounts[S comparable](counts map[S]int) *View[S] {
	total := 0
	for _, c := range counts {
		if c < 0 {
			panic("fssga: negative multiplicity")
		}
		total += c
	}
	return &View[S]{counts: counts, total: total}
}

// Empty reports whether the node has no live neighbours. The FSSGA model
// assumes a connected graph with more than one node, but faults can
// isolate a node mid-run; the engine freezes isolated nodes and algorithms
// may consult Empty defensively.
//
//fssga:hotpath
func (v *View[S]) Empty() bool { return v.total == 0 }

// DegreeCapped returns min(degree, cap) — the thresh observation of the
// total neighbour count. cap must be positive.
//
//fssga:hotpath
func (v *View[S]) DegreeCapped(cap int) int {
	if cap < 1 {
		panic("fssga: DegreeCapped needs cap >= 1")
	}
	if v.total > cap {
		return cap
	}
	return v.total
}

// count returns the raw multiplicity μ_q of the exact state q. An entry
// view holds at most one entry per distinct neighbour state, so the scan
// is bounded by the node's degree.
//
//fssga:hotpath
func (v *View[S]) count(q S) int {
	for i := range v.ents {
		if v.ents[i].state == q {
			return int(v.ents[i].n)
		}
	}
	return v.counts[q]
}

// CountState returns min(μ_q, cap) for the exact state q.
//
//fssga:hotpath
func (v *View[S]) CountState(q S, cap int) int {
	if cap < 1 {
		panic("fssga: CountState needs cap >= 1")
	}
	c := v.count(q)
	if c > cap {
		return cap
	}
	return c
}

// Count returns min(Σ_{q: pred(q)} μ_q, cap): the capped count of
// neighbours whose state satisfies pred. pred partitions the finite state
// set, so this is a thresh-expressible observation.
//
//fssga:hotpath
func (v *View[S]) Count(cap int, pred func(S) bool) int {
	if cap < 1 {
		panic("fssga: Count needs cap >= 1")
	}
	c := 0
	for i := range v.ents {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(v.ents[i].state) {
			c += int(v.ents[i].n)
			if c >= cap {
				return cap
			}
		}
	}
	for s, n := range v.counts {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(s) {
			c += n
			if c >= cap {
				return cap
			}
		}
	}
	return c
}

// CountMod returns (Σ_{q: pred(q)} μ_q) mod m — the mod observation.
//
//fssga:hotpath
func (v *View[S]) CountMod(m int, pred func(S) bool) int {
	if m < 1 {
		panic("fssga: CountMod needs modulus >= 1")
	}
	c := 0
	for i := range v.ents {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(v.ents[i].state) {
			c = (c + int(v.ents[i].n)) % m
		}
	}
	for s, n := range v.counts {
		//fssga:alloc(pred is the caller's predicate; viewpure holds step programs to allocation-free observation)
		if pred(s) {
			c = (c + n) % m
		}
	}
	return c
}

// Any reports whether at least one neighbour satisfies pred.
//
//fssga:hotpath
func (v *View[S]) Any(pred func(S) bool) bool { return v.Count(1, pred) == 1 }

// AnyState reports whether at least one neighbour is exactly in state q.
//
//fssga:hotpath
func (v *View[S]) AnyState(q S) bool { return v.count(q) > 0 }

// None reports whether no neighbour satisfies pred.
//
//fssga:hotpath
func (v *View[S]) None(pred func(S) bool) bool { return !v.Any(pred) }

// All reports whether every neighbour satisfies pred (vacuously true for
// an isolated node).
//
//fssga:hotpath
func (v *View[S]) All(pred func(S) bool) bool {
	//fssga:alloc(the negation closure escapes into None; it captures only pred and is gone when All returns)
	return v.None(func(s S) bool { return !pred(s) })
}

// Exactly reports whether precisely k neighbours satisfy pred (k is a
// program constant, so this stays thresh-expressible via Equation (4)).
//
//fssga:hotpath
func (v *View[S]) Exactly(k int, pred func(S) bool) bool {
	return v.Count(k+1, pred) == k
}

// ForEach calls f once per distinct neighbour state with its multiplicity,
// in unspecified order. Intended for remapping and for formal automata
// that expand the multiset; algorithm programs should prefer the
// capped/mod observations.
//
//fssga:hotpath
func (v *View[S]) ForEach(f func(state S, count int)) {
	for i := range v.ents {
		//fssga:alloc(f is the caller's fold; viewpure holds step programs to allocation-free observation)
		f(v.ents[i].state, int(v.ents[i].n))
	}
	for s, n := range v.counts {
		//fssga:alloc(f is the caller's fold; viewpure holds step programs to allocation-free observation)
		f(s, n)
	}
}

// Remap builds the View seen through a state transformation: each
// neighbour in state s is observed as being in state f(s). Used by the
// synchronizer transform, where a wrapped automaton must observe either
// the current or the previous component of each neighbour's composite
// state. The result is always a map-mode View owning its map.
func Remap[S, T comparable](v *View[S], f func(S) T) *View[T] {
	out := make(map[T]int, len(v.counts)+len(v.ents))
	v.ForEach(func(s S, n int) {
		out[f(s)] += n
	})
	return NewViewFromCounts(out)
}
