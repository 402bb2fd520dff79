package fssga

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// Micro-benchmark for the CSR hoist: the pre-shard engine paid, per node
// per round, an Alive() call, a Degree() call, and a SortedNeighbors()
// copy against the mutable graph. The CSR snapshot replaces all three
// with two flat-array loads (an offsets slice expression), hoisting the
// liveness/degree branches out of the hot loop entirely — dead and
// isolated nodes are exactly the empty rows. legacyRound reproduces the
// old access pattern verbatim so `go test -bench RoundTopologyAccess`
// measures the delta on identical work.

// legacyRound is the pre-CSR SyncRound body: per-node interface calls
// and a neighbour copy into scratch (narrowed to the view builder's
// int32 row), then the same view build, Step and commit.
func legacyRound[S comparable](net *Network[S], nbrBuf []int, row []int32) ([]int, []int32) {
	sc := net.serialScratch()
	nextIDs := net.nextIDBuffer()
	for v := 0; v < net.G.Cap(); v++ {
		if !net.G.Alive(v) || net.G.Degree(v) == 0 {
			net.next[v] = net.states[v]
			nextIDs[v] = net.ids[v]
			continue
		}
		nbrBuf = net.G.SortedNeighbors(v, nbrBuf[:0])
		row = row[:0]
		for _, u := range nbrBuf {
			row = append(row, int32(u))
		}
		view := net.buildView(sc, row)
		s := net.auto.Step(net.states[v], view, net.rngs[v])
		net.next[v] = s
		nextIDs[v] = net.nextID(v, s)
	}
	net.commitRound()
	return nbrBuf, row
}

func benchTopologyNet(seed int64) *Network[int] {
	rng := rand.New(rand.NewSource(seed))
	g := graph.RandomConnectedGNP(4096, 8.0/4096, rng)
	return New[int](g, denseMax{16}, func(v int) int { return v % 16 }, seed)
}

func BenchmarkRoundTopologyAccess(b *testing.B) {
	// Two topologies: the legacy path's costs — the neighbour copy and the
	// pointer-chase into per-node adjacency backing arrays — grow with
	// degree, so the degree-2 cycle is the worst case for the CSR and the
	// avg-degree-8 GNP shows the realistic win.
	for _, tc := range []struct {
		name string
		mk   func() *Network[int]
	}{
		{"cycle/deg=2", func() *Network[int] {
			return New[int](graph.Cycle(4096), denseMax{16}, func(v int) int { return v % 16 }, 1)
		}},
		{"gnp/deg=8", func() *Network[int] { return benchTopologyNet(1) }},
	} {
		b.Run(tc.name+"/graph-interface", func(b *testing.B) {
			net := tc.mk()
			var buf []int
			var row []int32
			buf, row = legacyRound(net, buf, row) // warm up scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, row = legacyRound(net, buf, row)
			}
		})
		b.Run(tc.name+"/csr", func(b *testing.B) {
			net := tc.mk()
			net.SyncRound() // warm up scratch + snapshot
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.SyncRound()
			}
		})
	}
}

// TestLegacyRoundMatchesCSRRound pins the benchmark's apples-to-apples
// claim: the legacy access pattern and the CSR round compute identical
// trajectories, so the ns/op delta is pure topology-access cost.
func TestLegacyRoundMatchesCSRRound(t *testing.T) {
	legacy := benchTopologyNet(3)
	csr := benchTopologyNet(3)
	var buf []int
	var row []int32
	for r := 0; r < 3; r++ {
		buf, row = legacyRound(legacy, buf, row)
		csr.SyncRound()
		for v := 0; v < 4096; v++ {
			if legacy.State(v) != csr.State(v) {
				t.Fatalf("round %d node %d: legacy %d, csr %d", r+1, v, legacy.State(v), csr.State(v))
			}
		}
	}
}
