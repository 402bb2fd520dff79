package fssga

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// FuzzInternedView: for an arbitrary neighbour multiset, the engine's
// interned view and a map view built by NewView make identical
// observations. The multiset sits on the leaves of a star and the centre
// observes it. Before that, the leaves hold the states of prior, so the
// intern table also holds states absent from the view and ids are not the
// states themselves.
func FuzzInternedView(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2}, []byte{3})
	f.Add([]byte{5, 5, 5, 5, 5, 5}, []byte{})
	f.Add([]byte{9}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{10, 0, 10, 3, 7, 7, 2, 10, 1}, []byte{200, 100})
	f.Fuzz(func(t *testing.T, ms, prior []byte) {
		if len(ms) == 0 || len(ms) > 512 {
			t.Skip("multiset size outside 1..512")
		}
		const k = 11 // multiset states are 0..k-1
		g := graph.Star(len(ms) + 1)
		net := New[int](g, StepFunc[int](func(self int, _ *View[int], _ *rand.Rand) int { return self }),
			func(v int) int {
				if len(prior) == 0 {
					return -1
				}
				return 1000 + int(prior[v%len(prior)])
			}, 1)
		nbrStates := make([]int, len(ms))
		for i, b := range ms {
			nbrStates[i] = int(b) % k
			net.SetState(i+1, nbrStates[i])
		}
		got := net.buildView(net.serialScratch(), net.topo().Neighbors(0))
		want := NewView(nbrStates)

		if got.Empty() != want.Empty() {
			t.Fatalf("Empty: interned %v, map %v", got.Empty(), want.Empty())
		}
		for c := 1; c <= 4; c++ {
			if got.DegreeCapped(c) != want.DegreeCapped(c) {
				t.Fatalf("DegreeCapped(%d): interned %d, map %d", c, got.DegreeCapped(c), want.DegreeCapped(c))
			}
		}
		for q := -1; q <= k; q++ {
			if got.AnyState(q) != want.AnyState(q) {
				t.Fatalf("AnyState(%d): interned %v, map %v", q, got.AnyState(q), want.AnyState(q))
			}
			for c := 1; c <= 3; c++ {
				if got.CountState(q, c) != want.CountState(q, c) {
					t.Fatalf("CountState(%d, %d): interned %d, map %d", q, c, got.CountState(q, c), want.CountState(q, c))
				}
			}
		}
		preds := map[string]func(int) bool{
			"odd":   func(s int) bool { return s%2 == 1 },
			"lt5":   func(s int) bool { return s < 5 },
			"any":   func(int) bool { return true },
			"never": func(int) bool { return false },
		}
		for name, pred := range preds {
			for c := 1; c <= 4; c++ {
				if got.Count(c, pred) != want.Count(c, pred) {
					t.Fatalf("Count(%d, %s): interned %d, map %d", c, name, got.Count(c, pred), want.Count(c, pred))
				}
				if got.CountMod(c, pred) != want.CountMod(c, pred) {
					t.Fatalf("CountMod(%d, %s): interned %d, map %d", c, name, got.CountMod(c, pred), want.CountMod(c, pred))
				}
			}
		}
		type totals struct{ distinct, count, weighted int }
		fold := func(v *View[int]) totals {
			var tt totals
			v.ForEach(func(s, c int) {
				tt.distinct++
				tt.count += c
				tt.weighted += (s + 1) * c
			})
			return tt
		}
		if g, w := fold(got), fold(want); g != w {
			t.Fatalf("ForEach totals: interned %+v, map %+v", g, w)
		}
	})
}

// TestInternTableLimit: the table holds at most math.MaxInt32 ids, and a
// state past the limit panics with a message naming it instead of
// wrapping an int32 id. The limit is lowered through the table's field,
// so no 2^31 states are materialised.
func TestInternTableLimit(t *testing.T) {
	net := New[int](graph.Path(3), denseMax{8}, func(v int) int { return 0 }, 1)
	if net.tab.limit != math.MaxInt32 {
		t.Fatalf("intern limit %d, want math.MaxInt32", net.tab.limit)
	}
	net.tab.limit = len(net.tab.ents) + 1 // room for exactly one more state
	net.SetState(0, 1)
	net.SetState(1, 1) // already interned: no growth
	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		net.SetState(2, 2)
		return ""
	}()
	if !strings.Contains(msg, "math.MaxInt32") {
		t.Fatalf("interning past the limit: panic %q, want one naming the math.MaxInt32 limit", msg)
	}
}
