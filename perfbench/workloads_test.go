package main

import (
	"reflect"
	"testing"

	"repro/internal/fssga"
)

// engineView is what the engine decided about a network: its view path,
// hub set and round counter, and the node states.
type engineView struct {
	dense  bool
	hubs   int
	rounds int
	states any
}

func viewOf[S comparable](net *fssga.Network[S]) engineView {
	return engineView{net.DenseViews(), net.AggStats().Hubs, net.Rounds, append([]S(nil), net.States()...)}
}

func engineOf(t *testing.T, inst instance) engineView {
	t.Helper()
	switch op := inst.(type) {
	case *electionOp:
		return viewOf(op.t.Net)
	case *bfsOp:
		return viewOf(op.net)
	case *censusOp:
		return viewOf(op.net)
	}
	t.Fatalf("unknown instance %T", inst)
	return engineView{}
}

// checkRoundSpans checks that a traced solve left no span open and
// recorded one fssga.round span per committed round, plus at most the
// frontier driver's final round that found the network quiescent.
func checkRoundSpans(t *testing.T, tr *tracer, rounds int) {
	t.Helper()
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open after solve", len(tr.open))
	}
	n := 0
	for _, sp := range tr.spans {
		if sp.Name == "fssga.round" {
			n++
		}
	}
	if n != rounds && n != rounds+1 {
		t.Errorf("%d fssga.round spans for %d rounds", n, rounds)
	}
}

// TestTracedRunMeasuresSameProgram runs every workload at full size once
// untraced and once traced, and checks that the step-counting wrapper
// leaves the engine on the same view path and hub set, and the run on
// the same trajectory, as the unwrapped automaton. It also checks that
// each layer's counters are non-zero exactly where the workload uses
// the layer.
func TestTracedRunMeasuresSameProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	// Counters that must be non-zero on the named workload and zero on
	// the others.
	owned := map[string]string{
		"fssga.agg_hubs":      "bfs-plaw-64k",
		"fssga.agg_hub_views": "bfs-plaw-64k",
		"graph.csr_rebuilds":  "census-faults-ckpt",
		"faults.applied":      "census-faults-ckpt",
		"checkpoint.writes":   "census-faults-ckpt",
		"checkpoint.bytes":    "census-faults-ckpt",
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var set, solved [2]engineView
			var counts map[string]float64
			for i, on := range []bool{false, true} {
				tr := newTracer(on)
				inst, err := w.setup(7, tr)
				if err != nil {
					t.Fatal(err)
				}
				inst.prepare()
				set[i] = engineOf(t, inst)
				rounds, _, err := inst.solve(tr)
				if err != nil {
					t.Fatalf("traced=%v: %v", on, err)
				}
				if on {
					checkRoundSpans(t, tr, rounds)
				}
				solved[i] = engineOf(t, inst)
				if on {
					counts = inst.counts()
				}
				if err := inst.verify(tr); err != nil {
					t.Fatalf("traced=%v: %v", on, err)
				}
				inst.close()
			}
			for _, stage := range []struct {
				name          string
				plain, traced engineView
			}{{"after set-up", set[0], set[1]}, {"after solve", solved[0], solved[1]}} {
				p, q := stage.plain, stage.traced
				if p.dense != q.dense || p.hubs != q.hubs || p.rounds != q.rounds {
					t.Errorf("%s: untraced DenseViews=%v Hubs=%d Rounds=%d, traced DenseViews=%v Hubs=%d Rounds=%d",
						stage.name, p.dense, p.hubs, p.rounds, q.dense, q.hubs, q.rounds)
				}
				if !reflect.DeepEqual(p.states, q.states) {
					t.Errorf("%s: traced and untraced states differ", stage.name)
				}
			}
			if counts["fssga.steps"] <= 0 {
				t.Errorf("traced run counted %v steps", counts["fssga.steps"])
			}
			for name, owner := range owned {
				if got := counts[name]; (got > 0) != (owner == w.name) {
					t.Errorf("%s = %v on %s; want non-zero only on %s", name, got, w.name, owner)
				}
			}
		})
	}
}
