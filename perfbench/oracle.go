package main

import (
	"fmt"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/graph"
)

// The oracles check a finished operation's output against quantities the
// benchmark computes itself. They run outside every timed phase.

// checkElection reads the final states of the live nodes directly and
// accepts exactly one node that has started, remains a candidate and
// holds the leader flag, every other live node having started and
// dropped out. It returns the leader.
func checkElection(states []election.State, alive func(v int) bool) (int, error) {
	leader := -1
	for v, s := range states {
		if !alive(v) {
			continue
		}
		if !s.Started {
			return -1, fmt.Errorf("election: node %d never started", v)
		}
		if s.Leader != s.Remain {
			return -1, fmt.Errorf("election: node %d has Leader=%v but Remain=%v", v, s.Leader, s.Remain)
		}
		if !s.Leader {
			continue
		}
		if leader >= 0 {
			return -1, fmt.Errorf("election: nodes %d and %d are both leaders", leader, v)
		}
		leader = v
	}
	if leader < 0 {
		return -1, fmt.Errorf("election: no leader")
	}
	return leader, nil
}

// csrDistances returns hop distances from src over the CSR rows (-1 for
// unreached nodes).
func csrDistances(c *graph.CSR, src int) []int32 {
	dist := make([]int32, c.Cap())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, u := range c.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// checkBFS accepts a final BFS state vector when every node's label is
// its distance from the originator mod 3 and the originator ends Found.
func checkBFS(c *graph.CSR, origin int, states []bfs.State) error {
	for v, d := range csrDistances(c, origin) {
		if d < 0 {
			return fmt.Errorf("bfs: node %d is unreachable from the originator", v)
		}
		if want := int8(d % 3); states[v].Label != want {
			return fmt.Errorf("bfs: node %d at distance %d has label %d, want %d", v, d, states[v].Label, want)
		}
	}
	if st := states[origin].Status; st != bfs.Found {
		return fmt.Errorf("bfs: originator ended %v, want %v", st, bfs.Found)
	}
	return nil
}

// checkCensus accepts the final census states when, within each live
// component of g, every state is equal and contains the OR of the
// component's initial sketches.
func checkCensus(g *graph.Graph, initial, final []census.State) error {
	for _, comp := range g.Components() {
		var or census.State
		for _, v := range comp {
			for j := range or {
				or[j] |= initial[v][j]
			}
		}
		for _, v := range comp {
			if final[v] != final[comp[0]] {
				return fmt.Errorf("census: nodes %d and %d of one component disagree", comp[0], v)
			}
			if !census.SubState(or, final[v]) {
				return fmt.Errorf("census: node %d lacks bits of its component's initial sketches", v)
			}
		}
	}
	return nil
}

// checkRestored accepts a restored state vector equal to the live one.
func checkRestored(live, restored []census.State) error {
	if len(live) != len(restored) {
		return fmt.Errorf("restore: %d states, live network has %d", len(restored), len(live))
	}
	for v := range live {
		if live[v] != restored[v] {
			return fmt.Errorf("restore: node %d restored as %v, live %v", v, restored[v], live[v])
		}
	}
	return nil
}
