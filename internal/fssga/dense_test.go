package fssga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// denseMax is maxAutomaton with dense indexing over states 0..n-1. Its
// Step avoids closures so it can back the zero-allocation assertions.
type denseMax struct{ n int }

func (d denseMax) NumStates() int       { return d.n }
func (d denseMax) StateIndex(s int) int { return s }

// SaturationFootprint: Step probes only AnyState (presence), so counts
// beyond 1 are indistinguishable.
func (d denseMax) SaturationFootprint() (int, int) { return 1, 1 }
func (d denseMax) Step(self int, view *View[int], rnd *rand.Rand) int {
	// Max via capped counts: the largest q <= self+... scan states downward.
	for q := d.n - 1; q > self; q-- {
		if view.AnyState(q) {
			return q
		}
	}
	return self
}

// denseCoin is coinAutomaton with dense indexing: probabilistic, consuming
// one draw per activation, states {0, 1}.
type denseCoin struct{}

func (denseCoin) NumStates() int       { return 2 }
func (denseCoin) StateIndex(s int) int { return s }

// SaturationFootprint: Step reads CountState(1, 2) — a count capped at
// 2, so saturation at threshold 2 preserves it — and always consumes
// exactly one draw regardless of the view.
func (denseCoin) SaturationFootprint() (int, int) { return 2, 1 }
func (denseCoin) Step(self int, view *View[int], rnd *rand.Rand) int {
	return (rnd.Intn(2) + view.CountState(1, 2)) % 2
}

// hugeDense declares an oversized state space: no hub trees, and its
// StateIndex is never called.
type hugeDense struct{}

func (hugeDense) NumStates() int       { return math.MaxInt }
func (hugeDense) StateIndex(s int) int { return s }
func (hugeDense) Step(self int, view *View[int], rnd *rand.Rand) int {
	return maxAutomaton{}.Step(self, view, rnd)
}

// TestDenseDetection: every network builds its views on interned ids,
// so DenseViews reports true whatever optional interfaces the automaton
// implements.
func TestDenseDetection(t *testing.T) {
	g := graph.Path(4)
	if net := New[int](g.Clone(), denseMax{8}, func(v int) int { return v % 8 }, 1); !net.DenseViews() {
		t.Fatal("denseMax should run on dense views")
	}
	// Wrapping in StepFunc hides the DenseAutomaton methods.
	wrapped := StepFunc[int](denseMax{8}.Step)
	if net := New[int](g.Clone(), wrapped, func(v int) int { return v % 8 }, 1); !net.DenseViews() {
		t.Fatal("a StepFunc wrapper should run on dense views")
	}
	if net := New[int](g.Clone(), hugeDense{}, func(v int) int { return v }, 1); !net.DenseViews() {
		t.Fatal("an oversized NumStates should run on dense views")
	}
}

// TestDenseMatchesMap runs the same automaton as a DenseAutomaton (with
// every node of degree >= 3 on an aggregate tree) and wrapped in
// StepFunc (plain interned views) over random graphs, and checks both
// state trajectories against a reference that steps every node on a map
// view (NewView) of its neighbours' states. denseMax never draws, so the
// reference passes no stream.
func TestDenseMatchesMap(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomConnectedGNP(32, 0.12, rng)
		k := 8
		init := func(v int) int { return v % k }
		dense := New[int](g.Clone(), denseMax{k}, init, seed)
		dense.SetAggDegreeCutoff(3)
		mapped := New[int](g.Clone(), StepFunc[int](denseMax{k}.Step), init, seed)
		ref := append([]int(nil), dense.States()...)
		for r := 0; r < 6; r++ {
			next := make([]int, len(ref))
			for v := range ref {
				var nbrs []int
				for _, u := range g.SortedNeighbors(v, nil) {
					nbrs = append(nbrs, ref[u])
				}
				next[v] = denseMax{k}.Step(ref[v], NewView(nbrs), nil)
			}
			ref = next
			dense.SyncRound()
			mapped.SyncRound()
			for v := range ref {
				if dense.State(v) != ref[v] || mapped.State(v) != ref[v] {
					return false
				}
			}
		}
		return dense.AggStats().HubViews > 0
	}
	if err := quick.Check(prop, testutil.QuickN(t, 114, 20)); err != nil {
		t.Fatal(err)
	}
}

// TestDenseViewObservations builds engine views from interned ids and
// cross-checks every observation method against a freshly built map view
// of the same neighbourhood.
func TestDenseViewObservations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.RandomConnectedGNP(24, 0.2, rng)
	k := 5
	net := New[int](g, denseMax{k}, func(v int) int { return rng.Intn(k) }, 1)
	sc := net.serialScratch()
	for v := 0; v < g.Cap(); v++ {
		got := net.buildView(sc, g.CSR().Neighbors(v))
		var nbrStates []int
		for _, u := range g.SortedNeighbors(v, nil) {
			nbrStates = append(nbrStates, net.states[u])
		}
		want := NewView(nbrStates)
		if got.Empty() != want.Empty() || got.DegreeCapped(3) != want.DegreeCapped(3) {
			t.Fatalf("node %d: degree observations differ", v)
		}
		for q := -1; q <= k; q++ {
			if got.AnyState(q) != want.AnyState(q) {
				t.Fatalf("node %d: AnyState(%d) differs", v, q)
			}
			for cap := 1; cap <= 3; cap++ {
				if got.CountState(q, cap) != want.CountState(q, cap) {
					t.Fatalf("node %d: CountState(%d, %d) differs", v, q, cap)
				}
			}
		}
		odd := func(s int) bool { return s%2 == 1 }
		if got.Count(3, odd) != want.Count(3, odd) ||
			got.CountMod(3, odd) != want.CountMod(3, odd) ||
			got.Any(odd) != want.Any(odd) ||
			got.None(odd) != want.None(odd) ||
			got.All(odd) != want.All(odd) ||
			got.Exactly(2, odd) != want.Exactly(2, odd) {
			t.Fatalf("node %d: predicate observations differ", v)
		}
		gotSum, wantSum := 0, 0
		got.ForEach(func(s, c int) { gotSum += (s + 1) * c })
		want.ForEach(func(s, c int) { wantSum += (s + 1) * c })
		if gotSum != wantSum {
			t.Fatalf("node %d: ForEach aggregate differs", v)
		}
		gr := Remap(got, func(s int) int { return s % 2 })
		wr := Remap(want, func(s int) int { return s % 2 })
		if gr.CountState(1, 10) != wr.CountState(1, 10) || gr.CountState(0, 10) != wr.CountState(0, 10) {
			t.Fatalf("node %d: Remap differs", v)
		}
	}
}

// badIndex returns an out-of-range index for state 1. It declares a
// saturation footprint because hub trees are StateIndex's only consumer:
// the engine indexes (and range-checks) each state once, when it interns
// it, only for automata that can run on hub trees.
type badIndex struct{}

func (badIndex) NumStates() int                                     { return 2 }
func (badIndex) StateIndex(s int) int                               { return s * 100 }
func (badIndex) SaturationFootprint() (int, int)                    { return 1, 1 }
func (badIndex) Step(self int, view *View[int], rnd *rand.Rand) int { return self }

func TestDenseOutOfRangeIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range StateIndex")
		}
	}()
	net := New[int](graph.Path(3), badIndex{}, func(v int) int { return 1 }, 1)
	net.SyncRound()
}

// TestSyncRoundZeroAllocs: after warm-up, the synchronous-round hot path
// allocates nothing, for a DenseAutomaton and for a plain StepFunc alike
// (the "map-fallback" case predates interning, which gave every automaton
// the same id-indexed view path; the View and its entries are recycled).
func TestSyncRoundZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomConnectedGNP(128, 0.05, rng)
	for _, tc := range []struct {
		name string
		auto Automaton[int]
	}{
		{"dense", denseMax{8}},
		{"map-fallback", StepFunc[int](denseMax{8}.Step)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New[int](g.Clone(), tc.auto, func(v int) int { return v % 8 }, 1)
			net.SyncRound() // warm up scratch buffers
			if allocs := testing.AllocsPerRun(20, func() { net.SyncRound() }); allocs != 0 {
				t.Fatalf("SyncRound allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestActivateZeroAllocs covers the asynchronous hot path.
func TestActivateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := graph.Cycle(16)
	net := New[int](g, denseMax{8}, func(v int) int { return v % 8 }, 1)
	net.Activate(0) // warm up
	if allocs := testing.AllocsPerRun(50, func() { net.Activate(3) }); allocs != 0 {
		t.Fatalf("Activate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestQuiescentZeroAllocs: the quiescence probe reuses a cached
// throwaway RNG stream (reseeded in place), so after the first call it
// allocates nothing (previously one rand.Rand per call, and before that
// one per node per call).
func TestQuiescentZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := graph.Cycle(64)
	net := New[int](g, denseMax{8}, func(v int) int { return v % 8 }, 1)
	net.RunSyncUntilQuiescent(100)
	net.Quiescent() // first call lazily builds the probe stream
	if allocs := testing.AllocsPerRun(20, func() { net.Quiescent() }); allocs != 0 {
		t.Fatalf("Quiescent allocates %.1f objects/op, want 0 (probe stream should be cached)", allocs)
	}
}
