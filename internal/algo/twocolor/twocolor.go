// Package twocolor implements the 2-colouring / bipartiteness FSSGA of
// Pritchard & Vempala (SPAA 2006), Section 4.1: one node starts RED, all
// others BLANK, and each node adopts the colour forced by its neighbours,
// entering FAILED if it ever sees both colours (or a FAILED neighbour).
// On a bipartite graph the colouring stabilizes with no FAILED node; on a
// non-bipartite graph FAILED floods the network (experiment E4).
//
// The transition function is provided both as a View-based program and as
// the paper's verbatim mod-thresh programs (FormalPrograms), which the
// tests cross-validate against each other.
package twocolor

import (
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/sm"
)

// State is a node's colour state.
type State int

// The four states of Section 4.1.
const (
	Blank State = iota
	Red
	Blue
	Failed
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Blank:
		return "blank"
	case Red:
		return "red"
	case Blue:
		return "blue"
	case Failed:
		return "failed"
	default:
		return "invalid"
	}
}

// automaton is the View-based transition function, a direct transcription
// of the paper's mod-thresh pseudocode. With only four states it
// trivially implements fssga.DenseAutomaton, and its saturation
// footprint lets high-degree nodes run on hub aggregate trees.
type automaton struct{}

// NumStates implements fssga.DenseAutomaton.
func (automaton) NumStates() int { return 4 }

// StateIndex implements fssga.DenseAutomaton.
func (automaton) StateIndex(s State) int { return int(s) }

// SaturationFootprint implements fssga.SaturatingAutomaton: Step reads
// only AnyState presence bits, so multiplicities beyond 1 are
// indistinguishable. Verified against the exhaustive multiset semantics
// by internal/mc's witness check.
func (automaton) SaturationFootprint() (int, int) { return 1, 1 }

// Step implements fssga.Automaton.
func (automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	if self == Failed {
		return Failed // failure is absorbing
	}
	anyFailed := view.AnyState(Failed)
	anyRed := view.AnyState(Red)
	anyBlue := view.AnyState(Blue)
	switch {
	case anyFailed:
		return Failed
	case anyRed && anyBlue:
		return Failed
	case anyRed:
		// A red node adjacent to a red node is an odd cycle.
		if self == Red {
			return Failed
		}
		return Blue
	case anyBlue:
		if self == Blue {
			return Failed
		}
		return Red
	default:
		return self
	}
}

// FormalPrograms returns the paper's transition as one mod-thresh program
// per own-state, directly matching the Section 4.1 pseudocode, for use
// with fssga.FormalAutomaton. Note the pseudocode's f[q] cascade is
// self-state-dependent only in the last arm (keeping one's colour), which
// the formal model expresses by choosing f[q] per own state q.
func FormalPrograms() []*sm.ModThresh {
	const numQ = 4
	progs := make([]*sm.ModThresh, numQ)
	for q := State(0); q < 4; q++ {
		if q == Failed {
			progs[q] = &sm.ModThresh{NumQ: numQ, NumR: numQ, Default: int(Failed)}
			continue
		}
		seeFailed := sm.Not{P: sm.ThreshAtom{State: int(Failed), T: 1}}
		seeRed := sm.Not{P: sm.ThreshAtom{State: int(Red), T: 1}}
		seeBlue := sm.Not{P: sm.ThreshAtom{State: int(Blue), T: 1}}
		redResult, blueResult := int(Blue), int(Red)
		if q == Red {
			redResult = int(Failed) // red seeing red: odd cycle
		}
		if q == Blue {
			blueResult = int(Failed)
		}
		progs[q] = &sm.ModThresh{
			NumQ: numQ,
			NumR: numQ,
			Clauses: []sm.Clause{
				{Cond: seeFailed, Result: int(Failed)},
				{Cond: sm.And{Ps: []sm.Prop{seeRed, seeBlue}}, Result: int(Failed)},
				{Cond: seeRed, Result: redResult},
				{Cond: seeBlue, Result: blueResult},
			},
			Default: int(q),
		}
	}
	return progs
}

// Auto returns the 2-colouring transition function, for engines (like the
// bounded model checker, internal/mc) that evaluate activations outside a
// Network. The automaton is deterministic: it never consults the RNG.
func Auto() fssga.Automaton[State] { return automaton{} }

// NewNetwork builds the 2-colouring network with `origin` starting RED and
// every other node BLANK.
func NewNetwork(g *graph.Graph, origin int, seed int64) *fssga.Network[State] {
	return fssga.New[State](g, automaton{}, func(v int) State {
		if v == origin {
			return Red
		}
		return Blank
	}, seed)
}

// Result summarizes a run.
type Result struct {
	Rounds    int
	Converged bool
	Bipartite bool // no FAILED node at quiescence and colouring proper
	// Colors[v] is the final state of node v.
	Colors []State
}

// Run executes the algorithm synchronously to quiescence (or maxRounds)
// and reports whether the component of origin 2-coloured successfully.
func Run(g *graph.Graph, origin, maxRounds int, seed int64) Result {
	net := NewNetwork(g, origin, seed)
	rounds, finished := net.RunSyncUntilQuiescent(maxRounds)
	res := Result{Rounds: rounds, Converged: finished, Colors: make([]State, g.Cap())}
	res.Bipartite = true
	for v := 0; v < g.Cap(); v++ {
		res.Colors[v] = net.State(v)
		if g.Alive(v) && net.State(v) == Failed {
			res.Bipartite = false
		}
	}
	return res
}
