// Fixture for the finstate analyzer: finite state-type domains and the
// boundedness dataflow over Step bodies.
package finstate

import (
	"math/rand"

	"fssga"
)

type S int8

// GoodStep: mod-reduction and the clamp idiom keep every returned
// value bounded; nothing may be flagged.
func GoodStep(self S, view *fssga.View[S], rnd *rand.Rand) S {
	next := (self + 1) % 4
	x := self * 2
	if x > 5 {
		x = 5
	}
	c := S(view.Count(3, func(s S) bool { return s == self }))
	return (next + x + c) % 4
}

// GoodFold re-bounds the fold accumulator before returning it.
func GoodFold(self S, view *fssga.View[S], rnd *rand.Rand) S {
	sum := 0
	view.ForEach(func(t S, c int) {
		sum += c
	})
	return S(sum % 4)
}

// GoodMin: the min builtin is bounded by its bounded argument.
func GoodMin(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return min(self*3, S(7))
}

// BadGrow returns an unclamped increment: iterated over rounds the
// state diverges.
func BadGrow(self S, view *fssga.View[S], rnd *rand.Rand) S {
	return self + 1 // want `returned state value grows without bound`
}

// BadCounter: ++ on state without a bounding condition.
func BadCounter(self S, view *fssga.View[S], rnd *rand.Rand) S {
	x := self
	if view.Empty() {
		x++
	}
	return x // want `returned state value grows without bound`
}

// BadFold accumulates neighbour magnitudes without re-bounding.
func BadFold(self S, view *fssga.View[S], rnd *rand.Rand) S {
	sum := S(0)
	view.ForEach(func(t S, _ int) {
		sum += t
	})
	return sum // want `returned state value grows without bound`
}

// BadChain3 relays the fold's growth down a three-link accumulator
// chain: every ForEach iteration moves it one link closer to a.
func BadChain3(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c := S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) {
		a = b
		b = c
		c += t
	})
	return a // want `returned state value grows without bound`
}

// BadChain4 is the same relay one link longer: the fold must run to its
// fixed point, not a fixed number of rounds, to see it.
func BadChain4(self S, view *fssga.View[S], rnd *rand.Rand) S {
	a, b, c, d := S(0), S(0), S(0), S(0)
	view.ForEach(func(t S, _ int) {
		a = b
		b = c
		c = d
		d += t
	})
	return a // want `returned state value grows without bound`
}

// ArrState is finite: fixed-width fields and a fixed-size array.
type ArrState struct {
	Bits [4]int8
	Tag  uint8
}

func ArrStep(self ArrState, view *fssga.View[ArrState], rnd *rand.Rand) ArrState {
	self.Tag = (self.Tag + 1) % 2
	return self
}

// SliceState smuggles an n-sized payload into the "finite" state.
type SliceState struct {
	Peers []int
	Tag   int8
}

func SliceStep(self SliceState, view *fssga.View[SliceState], rnd *rand.Rand) SliceState { // want `state type component state.Peers is a slice`
	return self
}

// MapState does the same with a map.
type MapState struct{ Seen map[int]bool }

func MapStep(self MapState, view *fssga.View[MapState], rnd *rand.Rand) MapState { // want `state type component state.Seen is a map`
	return self
}

// PtrState links states into an unbounded structure.
type PtrState struct{ Next *PtrState }

func PtrStep(self PtrState, view *fssga.View[PtrState], rnd *rand.Rand) PtrState { // want `state type component state.Next is a pointer`
	return self
}

func StringStep(self string, view *fssga.View[string], rnd *rand.Rand) string { // want `state type component state is a string`
	return self
}
