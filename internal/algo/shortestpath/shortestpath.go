// Package shortestpath implements the decentralized distance-to-T
// clustering algorithm of Pritchard & Vempala (SPAA 2006), Section 2.2:
// nodes in a target set T pin their label to 0, and every other node
// repeatedly sets its label to one more than the minimum of its
// neighbours' labels, capped at a bound (the paper suggests n) in case its
// component contains no target. At stabilization each label equals the
// graph distance to the nearest target. The algorithm is 0-sensitive
// (experiment E3) and its labels implicitly route packets along shortest
// paths to the nearest "data sink".
package shortestpath

import (
	"fmt"
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// State is a node's algorithm state: target membership plus the current
// distance label. Labels are bounded by the automaton's cap, so the state
// space is finite.
type State struct {
	InT   bool
	Label int
}

// automaton applies the balancing rule ℓ(v) := 1 + min over neighbours,
// capped; targets stay pinned at 0. Labels range over 0..cap, so the
// automaton implements fssga.DenseAutomaton with 2·(cap+1) states, and
// high-degree nodes run on hub aggregate trees when that fits 256 states
// (larger caps keep the linear scan automatically).
type automaton struct {
	cap int
}

// NumStates implements fssga.DenseAutomaton.
func (a automaton) NumStates() int { return 2 * (a.cap + 1) }

// StateIndex implements fssga.DenseAutomaton.
func (a automaton) StateIndex(s State) int {
	i := s.Label
	if s.InT {
		i += a.cap + 1
	}
	return i
}

// SaturationFootprint implements fssga.SaturatingAutomaton: Step is a
// min-fold over the set of present labels, so only state presence
// matters. Verified against the exhaustive multiset semantics by
// internal/mc's witness check.
func (automaton) SaturationFootprint() (int, int) { return 1, 1 }

// Step implements fssga.Automaton.
func (a automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	if self.InT {
		return State{InT: true, Label: 0}
	}
	best := a.cap
	view.ForEach(func(s State, _ int) {
		if s.Label < best {
			best = s.Label
		}
	})
	label := best + 1
	if label > a.cap {
		label = a.cap
	}
	return State{Label: label}
}

// Auto returns the distance-relaxation transition function with the given
// label cap, for engines (like the bounded model checker, internal/mc)
// that evaluate activations outside a Network. The automaton is
// deterministic: it never consults the RNG.
func Auto(cap int) fssga.Automaton[State] { return automaton{cap: cap} }

// NewNetwork builds a shortest-path network over g with the given target
// set and label cap. Non-target nodes start at the cap (i.e. "unknown").
func NewNetwork(g *graph.Graph, targets []int, cap int, seed int64) (*fssga.Network[State], error) {
	if cap < 1 {
		return nil, fmt.Errorf("shortestpath: cap must be >= 1, got %d", cap)
	}
	inT := make(map[int]bool, len(targets))
	for _, t := range targets {
		if !g.Alive(t) {
			return nil, fmt.Errorf("shortestpath: target %d is not a live node", t)
		}
		inT[t] = true
	}
	return fssga.New[State](g, automaton{cap: cap}, func(v int) State {
		if inT[v] {
			return State{InT: true, Label: 0}
		}
		return State{Label: cap}
	}, seed), nil
}

// StepInvariant reports an invariant-violating transition from old to
// next under label cap `cap`: target membership is immutable, a target's
// label is pinned to 0, and every label stays within [0, cap]. These hold
// under arbitrary decreasing faults (labels may move in either direction
// as targets become unreachable), so the chaos harness checks them every
// round. It returns "" for a legal transition.
func StepInvariant(old, next State, cap int) string {
	if old.InT != next.InT {
		return fmt.Sprintf("target membership changed: %+v -> %+v", old, next)
	}
	if next.InT && next.Label != 0 {
		return fmt.Sprintf("target label moved off 0: %+v", next)
	}
	if next.Label < 0 || next.Label > cap {
		return fmt.Sprintf("label out of range [0,%d]: %+v", cap, next)
	}
	return ""
}

// Result summarizes a run.
type Result struct {
	Rounds    int
	Converged bool
	// Labels[v] is the final label of node v (cap means "no target
	// reachable"; graph.Unreachable for dead nodes).
	Labels []int
}

// Run executes the algorithm synchronously to quiescence (or maxRounds)
// with cap = number of live nodes, the paper's suggestion.
func Run(g *graph.Graph, targets []int, maxRounds int, seed int64) (Result, error) {
	cap := g.NumNodes()
	if cap < 1 {
		cap = 1
	}
	net, err := NewNetwork(g, targets, cap, seed)
	if err != nil {
		return Result{}, err
	}
	rounds, finished := net.RunSyncUntilQuiescent(maxRounds)
	return collect(g, net, rounds, finished), nil
}

func collect(g *graph.Graph, net *fssga.Network[State], rounds int, finished bool) Result {
	res := Result{Rounds: rounds, Converged: finished, Labels: make([]int, g.Cap())}
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(v) {
			res.Labels[v] = net.State(v).Label
		} else {
			res.Labels[v] = graph.Unreachable
		}
	}
	return res
}

// RouteNext returns the next hop for a packet at v routing toward the
// nearest target: a neighbour with minimum label (smallest ID breaks
// ties), or -1 if v has no live neighbour with a smaller label.
func RouteNext(g *graph.Graph, labels []int, v int) int {
	best := -1
	bestLabel := labels[v]
	for _, u := range g.SortedNeighbors(v, nil) {
		if labels[u] < bestLabel {
			best = u
			bestLabel = labels[u]
		}
	}
	return best
}

// RoutePath follows RouteNext from v until it reaches a label-0 node,
// returning the node sequence, or nil if routing gets stuck (no target
// reachable).
func RoutePath(g *graph.Graph, labels []int, v int) []int {
	path := []int{v}
	for labels[v] != 0 {
		next := RouteNext(g, labels, v)
		if next == -1 {
			return nil
		}
		v = next
		path = append(path, v)
	}
	return path
}
