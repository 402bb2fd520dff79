package fssga

import "math/rand"

// Test-only accessors for the external reference differential
// (reference_diff_test.go), which must drive Step with the engine's own
// automaton and per-node random streams.

// NodeStream returns node v's private random stream.
func (net *Network[S]) NodeStream(v int) *rand.Rand { return net.rngs[v] }

// Automaton returns the automaton the network runs.
func (net *Network[S]) Automaton() Automaton[S] { return net.auto }
