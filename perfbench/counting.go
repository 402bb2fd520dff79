package main

import (
	"math/rand"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/fssga"
)

// stepCounter counts the Step calls of a traced run and how many of them
// changed the node's state, atomically, so a wrapped automaton may also
// step from the workers of a parallel round.
type stepCounter struct {
	steps, changed atomic.Int64
}

// countAuto wraps an automaton to count its Step calls. The engine picks
// its view path (dense vectors, map views, hub aggregation) from the
// optional interfaces an automaton implements, so counting chooses the
// wrapper that forwards exactly the inner automaton's set.
type countAuto[S comparable] struct {
	inner fssga.Automaton[S]
	c     *stepCounter
}

func (a countAuto[S]) Step(self S, view *fssga.View[S], rnd *rand.Rand) S {
	out := a.inner.Step(self, view, rnd)
	a.c.steps.Add(1)
	if out != self {
		a.c.changed.Add(1)
	}
	return out
}

type countDense[S comparable] struct {
	countAuto[S]
	dense fssga.DenseAutomaton[S]
}

func (a countDense[S]) NumStates() int     { return a.dense.NumStates() }
func (a countDense[S]) StateIndex(s S) int { return a.dense.StateIndex(s) }

type countSat[S comparable] struct {
	countDense[S]
	sat fssga.SaturatingAutomaton[S]
}

func (a countSat[S]) SaturationFootprint() (int, int) { return a.sat.SaturationFootprint() }

// counting returns inner wrapped to count into c, implementing the same
// optional engine interfaces as inner.
func counting[S comparable](inner fssga.Automaton[S], c *stepCounter) fssga.Automaton[S] {
	base := countAuto[S]{inner: inner, c: c}
	if s, ok := inner.(fssga.SaturatingAutomaton[S]); ok {
		return countSat[S]{countDense[S]{base, s}, s}
	}
	if d, ok := inner.(fssga.DenseAutomaton[S]); ok {
		return countDense[S]{base, d}
	}
	return base
}

// countingFS is a checkpoint.FS that counts the bytes written through it.
type countingFS struct {
	checkpoint.FS
	bytes int64
}

func (f *countingFS) WriteFile(name string, data []byte) error {
	f.bytes += int64(len(data))
	return f.FS.WriteFile(name, data)
}
