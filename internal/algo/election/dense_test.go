package election

import (
	"math/rand"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestStateIndexInjective enumerates the full mixed-radix state space and
// checks StateIndex is a bijection onto [0, NumStates) — the
// DenseAutomaton contract (two states colliding would silently merge
// their counts in any StateIndex-keyed multiplicity vector).
func TestStateIndexInjective(t *testing.T) {
	a := automaton{}
	n := a.NumStates()
	if n != numStates {
		t.Fatalf("NumStates() = %d, want %d", n, numStates)
	}
	seen := make([]bool, n)
	count := 0
	for _, started := range []bool{false, true} {
		for _, remain := range []bool{false, true} {
			for phase := uint8(0); phase < 3; phase++ {
				for label := uint8(0); label < 2; label++ {
					for np := int8(-1); np <= 1; np++ {
						for _, leader := range []bool{false, true} {
							for dist := int8(-1); dist <= 2; dist++ {
								for rootLabel := uint8(0); rootLabel < 2; rootLabel++ {
									for _, complete := range []bool{false, true} {
										for cEpoch := int8(0); cEpoch < 3; cEpoch++ {
											for cColour := int8(-1); cColour <= 1; cColour++ {
												for mSt := MBlank; mSt <= MVisited; mSt++ {
													for mEl := ENone; mEl <= EOneTails; mEl++ {
														s := State{
															Started: started, Remain: remain,
															Phase: phase, Label: label, NP: np,
															Leader: leader, Dist: dist,
															RootLabel: rootLabel, Complete: complete,
															CEpoch: cEpoch, CColour: cColour,
															MSt: mSt, MEl: mEl,
														}
														i := a.StateIndex(s)
														if i < 0 || i >= n {
															t.Fatalf("StateIndex(%+v) = %d out of [0, %d)", s, i, n)
														}
														if seen[i] {
															t.Fatalf("StateIndex collision at %d for %+v", i, s)
														}
														seen[i] = true
														count++
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if count != n {
		t.Fatalf("enumerated %d states, want %d", count, n)
	}
}

// TestElectionRunsDense confirms the election network runs on interned
// (dense) views and agrees, over 200 rounds, with a reference that steps
// every node on a map view (fssga.NewView) of its neighbours' states.
// Election draws coins, so the reference needs the engine's per-node
// streams: it borrows them from a holder network with the same seed,
// whose state is the node's own index and whose Step ignores the
// engine-built view and computes the reference successor of that node.
func TestElectionRunsDense(t *testing.T) {
	const n, seed = 8, 5
	tr := New(graph.Cycle(n), seed)
	if !tr.Net.DenseViews() {
		t.Fatal("election should run on the dense view path")
	}
	g := graph.Cycle(n)
	ref := append([]State(nil), tr.Net.States()...)
	next := make([]State, n)
	holder := fssga.New[int](g, fssga.StepFunc[int](func(v int, _ *fssga.View[int], rnd *rand.Rand) int {
		var nbrs []State
		for _, u := range g.SortedNeighbors(v, nil) {
			nbrs = append(nbrs, ref[u])
		}
		next[v] = automaton{}.Step(ref[v], fssga.NewView(nbrs), rnd)
		return v
	}), func(v int) int { return v }, seed)
	for r := 0; r < 200; r++ {
		holder.SyncRound()
		ref, next = next, ref
		tr.Net.SyncRound()
		for v := 0; v < n; v++ {
			if tr.Net.State(v) != ref[v] {
				t.Fatalf("round %d: state[%d] = %+v, reference %+v", r+1, v, tr.Net.State(v), ref[v])
			}
		}
	}
}
