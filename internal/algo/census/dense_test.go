package census

import (
	"math/rand"
	"testing"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// TestStateIndexPacksSketches: the index concatenates the active sketch
// words, so distinct states get distinct indices within NumStates.
func TestStateIndexPacksSketches(t *testing.T) {
	a := automaton{bits: 3, sketches: 2}
	if got := a.NumStates(); got != 64 {
		t.Fatalf("NumStates = %d, want 64", got)
	}
	seen := map[int]State{}
	for w0 := uint16(0); w0 < 8; w0++ {
		for w1 := uint16(0); w1 < 8; w1++ {
			s := State{w0, w1}
			i := a.StateIndex(s)
			if i < 0 || i >= 64 {
				t.Fatalf("StateIndex(%v) = %d out of range", s, i)
			}
			if prev, dup := seen[i]; dup {
				t.Fatalf("collision: %v and %v both map to %d", prev, s, i)
			}
			seen[i] = s
		}
	}
}

// TestDenseForSmallConfigs: every census configuration runs on interned
// (dense) views — a small one whose 4096 states fit the hub trees and
// the paper's 14-bit x 8 default, which does not — and each matches,
// round by round, a reference that steps every node on a map view
// (fssga.NewView) of its neighbours' states. The iterated OR never
// draws, so the reference passes no stream.
func TestDenseForSmallConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomConnectedGNP(48, 0.1, rng)
	for _, cfg := range []Config{{Bits: 4, Sketches: 3, Seed: 9}, {Bits: 14, Sketches: 8, Seed: 9}} {
		net, err := NewNetwork(g.Clone(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !net.DenseViews() {
			t.Fatalf("census %dx%d should run on the dense view path", cfg.Bits, cfg.Sketches)
		}
		auto := automaton{bits: cfg.Bits, sketches: cfg.Sketches}
		ref := append([]State(nil), net.States()...)
		for r := 0; r < 12; r++ {
			next := make([]State, len(ref))
			for v := range ref {
				var nbrs []State
				for _, u := range g.SortedNeighbors(v, nil) {
					nbrs = append(nbrs, ref[u])
				}
				next[v] = auto.Step(ref[v], fssga.NewView(nbrs), nil)
			}
			ref = next
			net.SyncRound()
			for v := range ref {
				if net.State(v) != ref[v] {
					t.Fatalf("census %dx%d, round %d: state[%d] differs from the reference", cfg.Bits, cfg.Sketches, r+1, v)
				}
			}
		}
	}
}
