package fssga

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"

	"repro/internal/testutil"
)

// TestDeterminismAcrossWorkerCountsWithFaults is the engine's central
// reproducibility property: with per-node random streams, serial rounds
// and sharded parallel rounds at any worker count produce bit-identical
// state vectors — including across mid-run faults (which invalidate the
// CSR snapshot), probabilistic automata, and automata with and without
// the DenseAutomaton extension. n is kept above shardAlign so the parallel
// modes genuinely run on the shard pool rather than the small-network
// serial fallback.
func TestDeterminismAcrossWorkerCountsWithFaults(t *testing.T) {
	testutil.NoLeak(t)
	const n = 192
	autos := map[string]struct {
		auto Automaton[int]
		mod  int // initial states drawn from 0..mod-1
	}{
		"probabilistic-map":   {coinAutomaton{}, 2},
		"probabilistic-dense": {denseCoin{}, 2},
		"deterministic-dense": {denseMax{8}, 8},
	}
	for name, tc := range autos {
		auto, mod := tc.auto, tc.mod
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 42} {
				rng := rand.New(rand.NewSource(seed))
				g0 := graph.RandomConnectedGNP(n, 4.0/n, rng)

				// A pre-planned fault schedule, applied identically to every
				// replica: kill a node after round 3, cut an edge after round 6.
				victim := rng.Intn(n)
				edges := g0.Edges()
				cut := edges[rng.Intn(len(edges))]
				faults := func(g *graph.Graph, round int) {
					switch round {
					case 3:
						g.RemoveNode(victim)
					case 6:
						g.RemoveEdge(cut.U, cut.V)
					}
				}
				init := func(v int) int { return v % mod }

				run := func(round func(net *Network[int])) []int {
					net := New[int](g0.Clone(), auto, init, seed)
					defer net.Close()
					for r := 1; r <= 10; r++ {
						round(net)
						faults(net.G, r)
					}
					out := make([]int, n)
					copy(out, net.States())
					return out
				}

				ref := run(func(net *Network[int]) { net.SyncRound() })
				check := func(mode string, got []int) {
					t.Helper()
					for v := range ref {
						if got[v] != ref[v] {
							t.Fatalf("seed %d %s: state[%d] = %d, serial = %d",
								seed, mode, v, got[v], ref[v])
						}
					}
				}
				for _, w := range []int{1, 2, 4, 8} {
					check("parallel w="+strconv.Itoa(w),
						run(func(net *Network[int]) { net.SyncRoundParallel(w) }))
				}
				// Frontier-driven rounds (node- and shard-granular) are
				// restricted to deterministic automata; there they must
				// reproduce the full-round trajectory exactly, faults and all.
				if _, ok := auto.(denseMax); ok {
					check("serial frontier",
						run(func(net *Network[int]) { net.SyncRoundFrontier() }))
					for _, w := range []int{2, 5, 8} {
						check("frontier w="+strconv.Itoa(w),
							run(func(net *Network[int]) { net.SyncRoundParallelFrontier(w) }))
					}
				}
			}
		})
	}
}

// TestDeterminismCSRBacked: networks built directly over a streaming CSR
// (no mutable graph at all) are bit-identical across worker counts and
// to their graph-backed twin, for a probabilistic automaton.
func TestDeterminismCSRBacked(t *testing.T) {
	testutil.NoLeak(t)
	const rows, cols = 16, 16
	init := func(v int) int { return v % 2 }
	run := func(workers int) []int {
		net := NewFromCSR[int](graph.TorusCSR(rows, cols), denseCoin{}, init, 11)
		defer net.Close()
		for r := 0; r < 8; r++ {
			if workers == 0 {
				net.SyncRound()
			} else {
				net.SyncRoundParallel(workers)
			}
		}
		out := make([]int, rows*cols)
		copy(out, net.States())
		return out
	}
	ref := run(0)
	graphTwin := New[int](graph.Torus(rows, cols), denseCoin{}, init, 11)
	for r := 0; r < 8; r++ {
		graphTwin.SyncRound()
	}
	for v := range ref {
		if graphTwin.State(v) != ref[v] {
			t.Fatalf("graph-backed twin diverged at node %d", v)
		}
	}
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("workers %d: state[%d] = %d, serial = %d", w, v, got[v], ref[v])
			}
		}
	}
}
