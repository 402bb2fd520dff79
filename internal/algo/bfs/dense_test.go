package bfs

import (
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestStateIndexInjective enumerates the 48-state space and checks
// StateIndex is a bijection onto [0, NumStates).
func TestStateIndexInjective(t *testing.T) {
	a := automaton{}
	n := a.NumStates()
	seen := make([]bool, n)
	count := 0
	for _, orig := range []bool{false, true} {
		for _, target := range []bool{false, true} {
			for label := int8(-1); label <= 2; label++ {
				for status := Waiting; status <= Failed; status++ {
					s := State{Originator: orig, Target: target, Label: label, Status: status}
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
	if count != n {
		t.Fatalf("enumerated %d states, want %d", count, n)
	}
}

// TestBFSRunsDense checks the BFS network runs on interned (dense) views
// and matches, round by round, a reference that steps every node on a
// map view (fssga.NewView) of its neighbours' states — at the default hub
// cutoff and with every node of degree >= 2 on an aggregate tree. BFS is
// deterministic and never draws, so the reference passes no stream.
func TestBFSRunsDense(t *testing.T) {
	for _, cutoff := range []int{0, 2} {
		g := graph.Grid(6, 6)
		net, err := NewNetwork(g, 0, []int{35}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !net.DenseViews() {
			t.Fatal("bfs should run on the dense view path")
		}
		net.SetAggDegreeCutoff(cutoff)
		ref := append([]State(nil), net.States()...)
		for r := 0; r < 40; r++ {
			next := make([]State, len(ref))
			for v := range ref {
				var nbrs []State
				for _, u := range g.SortedNeighbors(v, nil) {
					nbrs = append(nbrs, ref[u])
				}
				next[v] = automaton{}.Step(ref[v], fssga.NewView(nbrs), nil)
			}
			ref = next
			net.SyncRound()
			for v := range ref {
				if net.State(v) != ref[v] {
					t.Fatalf("cutoff %d, round %d: state[%d] = %+v, reference %+v", cutoff, r+1, v, net.State(v), ref[v])
				}
			}
		}
		if cutoff > 0 && net.AggStats().HubViews == 0 {
			t.Fatalf("cutoff %d: no view came from an aggregate tree", cutoff)
		}
	}
}
