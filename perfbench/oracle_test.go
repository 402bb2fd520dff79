package main

import (
	"math/rand"
	"testing"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/fssga"
	"repro/internal/graph"
)

func TestElectionOracleRejectsCorruption(t *testing.T) {
	done := election.State{Started: true}
	states := []election.State{done, {Started: true, Remain: true, Leader: true}, done, done}
	alive := func(int) bool { return true }
	if v, err := checkElection(states, alive); err != nil || v != 1 {
		t.Fatalf("one leader: got (%d, %v), want (1, nil)", v, err)
	}
	for name, corrupt := range map[string]func(s []election.State){
		"no leader":                 func(s []election.State) { s[1] = done },
		"second leader":             func(s []election.State) { s[3] = s[1] },
		"leader no longer remains":  func(s []election.State) { s[1].Remain = false },
		"candidate not leader":      func(s []election.State) { s[2].Remain = true },
		"node that never started":   func(s []election.State) { s[0].Started = false },
		"non-candidate with a flag": func(s []election.State) { s[2].Leader = true },
	} {
		bad := append([]election.State(nil), states...)
		corrupt(bad)
		if _, err := checkElection(bad, alive); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A dead node's state is not looked at.
	dead := append([]election.State(nil), states...)
	dead[0] = election.State{}
	if _, err := checkElection(dead, func(v int) bool { return v != 0 }); err != nil {
		t.Errorf("dead node not ignored: %v", err)
	}
}

func TestBFSOracleRejectsCorruption(t *testing.T) {
	c := graph.PLawCSR(256, 4, 2, 7)
	target := 2*256 + 255
	net := fssga.NewFromCSR[bfs.State](c, bfs.Auto(), func(v int) bfs.State {
		return bfs.State{Originator: v == 0, Target: v == target, Label: bfs.NoLabel, Status: bfs.Waiting}
	}, 7)
	if _, ok := net.RunSyncUntilQuiescent(1000); !ok {
		t.Fatal("bfs did not quiesce")
	}
	states := append([]bfs.State(nil), net.States()...)
	if err := checkBFS(c, 0, states); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	flipped := append([]bfs.State(nil), states...)
	flipped[target].Label = (flipped[target].Label + 1) % 3
	if checkBFS(c, 0, flipped) == nil {
		t.Error("one flipped label accepted")
	}
	lost := append([]bfs.State(nil), states...)
	lost[0].Status = bfs.Failed
	if checkBFS(c, 0, lost) == nil {
		t.Error("originator not Found accepted")
	}
}

func TestCensusOracleRejectsCorruption(t *testing.T) {
	g := graph.RandomConnectedGNP(200, 0.03, rand.New(rand.NewSource(3)))
	// Cut node 5 off so the oracle sees more than one component.
	for _, u := range g.SortedNeighbors(5, nil) {
		g.RemoveEdge(5, u)
	}
	cfg := census.Config{Bits: 8, Sketches: 2, Seed: 3}
	net, err := census.NewNetwork(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := append([]census.State(nil), net.States()...)
	if _, ok := net.RunSyncUntilQuiescent(1000); !ok {
		t.Fatal("census did not quiesce")
	}
	final := append([]census.State(nil), net.States()...)
	if err := checkCensus(g, initial, final); err != nil {
		t.Fatalf("correct run rejected: %v", err)
	}
	if err := checkRestored(final, final); err != nil {
		t.Fatalf("identical restore rejected: %v", err)
	}
	// Drop one set sketch bit from one node.
	v := g.Nodes(nil)[17]
	dropped := append([]census.State(nil), final...)
	for j := range dropped[v] {
		if w := dropped[v][j]; w != 0 {
			dropped[v][j] = w & (w - 1)
			break
		}
	}
	if dropped[v] == final[v] {
		t.Fatal("node has no sketch bit to drop")
	}
	if checkCensus(g, initial, dropped) == nil {
		t.Error("one dropped sketch bit accepted")
	}
	if checkRestored(final, dropped) == nil {
		t.Error("restore differing in one bit accepted")
	}
	// A component agreeing on a state that misses an initial bit.
	var short []census.State
	for _, s := range final {
		s[0] &^= final[v][0] & -final[v][0]
		short = append(short, s)
	}
	if checkCensus(g, initial, short) == nil {
		t.Error("states missing an initial sketch bit accepted")
	}
}
