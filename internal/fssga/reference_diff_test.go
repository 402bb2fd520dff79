package fssga_test

// Reference differential for the view engine: every registered
// automaton, run through every engine on every topology family — with
// and without a chaos fault schedule — must reproduce the trajectory of
// a reference round computed straight from Definition 3.10. In the
// reference each live node steps on fssga.NewView over the states of
// its CSR row, with its own random stream. The reference shares no view
// code with the engine (no interning, no scratch buffers, no hub trees),
// so it catches a view-construction fault that every engine shares,
// which a comparison between two engine configurations cannot.

import (
	"fmt"
	"testing"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/algo/shortestpath"
	"repro/internal/algo/twocolor"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// refTrajectory computes the reference: the state vector before the
// first round and after each of rounds synchronous rounds of holder's
// automaton, started from holder's states. holder supplies the topology
// (its mutable graph, which the fault schedule shrinks before each
// round) and the per-node random streams; it is never stepped itself.
func refTrajectory[S comparable](holder *fssga.Network[S], sched faults.Schedule, rounds int) [][]S {
	var inj *faults.Injector
	if len(sched) > 0 {
		inj = faults.NewInjector(sched)
	}
	auto := holder.Automaton()
	states := append([]S(nil), holder.States()...)
	traj := [][]S{states}
	for r := 1; r <= rounds; r++ {
		if inj != nil {
			inj.Advance(holder.G, r)
		}
		c := holder.G.CSR()
		next := make([]S, len(states))
		for v := range states {
			nbrs := c.Neighbors(v)
			if len(nbrs) == 0 {
				next[v] = states[v]
				continue
			}
			nbrStates := make([]S, len(nbrs))
			for i, u := range nbrs {
				nbrStates[i] = states[u]
			}
			next[v] = auto.Step(states[v], fssga.NewView(nbrStates), holder.NodeStream(v))
		}
		states = next
		traj = append(traj, states)
	}
	return traj
}

// refEngines are the engines checked against the reference: serial,
// sharded-parallel at 2 and 4 workers, and the serial and parallel
// frontier rounds (deterministic automata only).
func refEngines[S comparable]() []diffEngine[S] {
	var out []diffEngine[S]
	for _, eng := range diffEngines[S]() {
		switch eng.name {
		case "serial", "par2", "par4", "frontier", "pfrontier2":
			out = append(out, eng)
		}
	}
	return out
}

// runRef runs the topology × faults × engine matrix for one automaton
// at the default hub cutoff (the star's hub runs on an aggregate tree).
// Trajectories are compared per committed round, as in runDiff: frontier
// engines do not commit quiescent rounds.
func runRef[S comparable](t *testing.T, det bool, mk func(g *graph.Graph, seed int64) *fssga.Network[S]) {
	t.Helper()
	for _, tp := range diffTopos() {
		tp := tp
		for _, withFaults := range []bool{false, true} {
			withFaults := withFaults
			name := tp.name
			if withFaults {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				var sched faults.Schedule
				if withFaults {
					sched = diffSchedule(tp.make)
				}
				holder := mk(tp.make(), diffSeed)
				defer holder.Close()
				ref := refTrajectory(holder, sched, diffRounds)
				for _, eng := range refEngines[S]() {
					eng := eng
					if eng.needsDet && !det {
						continue
					}
					t.Run(eng.name, func(t *testing.T) {
						net := mk(tp.make(), diffSeed)
						defer net.Close()
						attachFaults(net, sched)
						for i := 0; i < diffRounds; i++ {
							eng.round(net)
							want := ref[net.Rounds]
							for v, s := range net.States() {
								if s != want[v] {
									t.Fatalf("after call %d (round %d) node %d: engine %v, reference %v",
										i+1, net.Rounds, v, s, want[v])
								}
							}
						}
					})
				}
			})
		}
	}
}

func TestReferenceDifferential(t *testing.T) {
	testutil.NoLeak(t)
	t.Run("twocolor", func(t *testing.T) {
		runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[twocolor.State] {
			return twocolor.NewNetwork(g, 0, seed)
		})
	})
	t.Run("shortestpath", func(t *testing.T) {
		runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[shortestpath.State] {
			net, err := shortestpath.NewNetwork(g, []int{0}, 8, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	t.Run("bfs", func(t *testing.T) {
		runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[bfs.State] {
			net, err := bfs.NewNetwork(g, 0, []int{g.Cap() - 1}, seed)
			if err != nil {
				t.Fatal(err)
			}
			return net
		})
	})
	// Census at a hub-tree size (16 states), at the benchmark's 12x2
	// sketches and at the oversized 14x8 default.
	for _, cfg := range []census.Config{{Bits: 2, Sketches: 2}, {Bits: 12, Sketches: 2}, {Bits: 14, Sketches: 8}} {
		cfg := cfg
		t.Run(fmt.Sprintf("census-%dx%d", cfg.Bits, cfg.Sketches), func(t *testing.T) {
			runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[census.State] {
				c := cfg
				c.Seed = seed
				net, err := census.NewNetwork(g, c)
				if err != nil {
					t.Fatal(err)
				}
				return net
			})
		})
	}
	t.Run("election", func(t *testing.T) {
		runRef(t, false, func(g *graph.Graph, seed int64) *fssga.Network[election.State] {
			return election.New(g, seed).Net
		})
	})
	t.Run("parity", func(t *testing.T) {
		runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffParity{}, func(v int) int { return v % 2 }, seed)
		})
	})
	// The same automaton as a bare StepFunc, without the optional
	// interfaces: no hub trees, the plain interned path everywhere.
	t.Run("parity-stepfunc", func(t *testing.T) {
		runRef(t, true, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, fssga.StepFunc[int](diffParity{}.Step), func(v int) int { return v % 2 }, seed)
		})
	})
	t.Run("coin", func(t *testing.T) {
		runRef(t, false, func(g *graph.Graph, seed int64) *fssga.Network[int] {
			return fssga.New[int](g, diffCoin{}, func(v int) int { return v % 2 }, seed)
		})
	})
}
