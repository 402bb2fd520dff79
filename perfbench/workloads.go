package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algo/bfs"
	"repro/internal/algo/census"
	"repro/internal/algo/election"
	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/fssga"
	"repro/internal/graph"
)

// instance is one operation's input after set-up, ready to solve once.
type instance interface {
	// prepare keeps what verify needs, outside the timed set-up.
	prepare()
	// solve runs to the workload's stop condition and reports the
	// simulated rounds and the live nodes at the end.
	solve(tr *tracer) (rounds, live int, err error)
	// verify checks the output against the workload's oracle.
	verify(tr *tracer) error
	// counts reports the operation's layer counters (traced operations).
	counts() map[string]float64
	close()
}

// workload is one closed-loop benchmark input family.
type workload struct {
	name   string
	params string
	// batch is the number of set-ups timed back to back for one set-up
	// sample, so a set-up of a few milliseconds is timed over tens.
	batch int
	setup func(seed int64, tr *tracer) (instance, error)
}

// Workload sizes, fixed for every seed.
const (
	electionN = 512

	plawBlock  = 4096
	plawCopies = 16
	plawEPN    = 4

	censusN      = 4096
	censusRounds = 300
	censusEvery  = 10  // rounds between delta checkpoints
	faultSteps   = 200 // faults land in rounds 1..faultSteps
	faultRate    = 0.25
	faultNodes   = 0.5 // share of fault events that kill a node
)

var workloads = []workload{
	{
		name:   "election-gnp",
		params: fmt.Sprintf("graph.Build(gnp, %d), election.New, Tracker.Run until one leader is stable for 8 rounds, serial SyncRound", electionN),
		batch:  128,
		setup:  setupElection,
	},
	{
		name: "bfs-plaw-64k",
		params: fmt.Sprintf("graph.PLawCSR(%d, %d, %d), fssga.NewFromCSR(bfs.Auto()), originator 0, target node 1 of block %d, RunSyncUntilQuiescent",
			plawBlock, plawCopies, plawEPN, plawCopies/2),
		batch: 8,
		setup: setupBFS,
	},
	{
		name: "census-faults-ckpt",
		params: fmt.Sprintf("graph.RandomConnectedGNP(%d, 8/n), census Bits 12 x Sketches 2, %d-event fault schedule over rounds 1..%d, %d serial SyncRound rounds, CheckpointDelta every %d into MemFS",
			censusN, int(faultRate*faultSteps), faultSteps, censusRounds, censusEvery),
		batch: 1,
		setup: setupCensus,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topoWatch counts topology snapshot rebuilds. A Network re-snapshots
// its mutable graph only after the graph changed, so a new snapshot
// pointer marks one CSR rebuild; the call that built it becomes a
// graph.csr span. Calls that found the cached snapshot record nothing.
type topoWatch struct {
	last     *graph.CSR
	rebuilds int
}

func (w *topoWatch) check(tr *tracer, topo func() *graph.CSR) {
	start := tr.now()
	if c := topo(); c != w.last {
		tr.record("graph.csr", start, tr.now())
		w.last = c
		w.rebuilds++
	}
}

// roundHooks times the rounds of the library's own round drivers
// (Tracker.Run, RunSyncUntilQuiescent, the census SyncRound loop) from the
// network's hooks: OnBeforeRound opens a fssga.round span and OnRound
// closes it. From one OnRound to the next OnBeforeRound it holds a span
// named gap, when gap is set: the driver's own per-round work. before,
// when set, is the workload's pre-round hook (the census fault
// schedule); it runs ahead of the round span, as does the CSR rebuild a
// topology change makes the round need. With tracing off only before is
// installed, so an untraced solve runs the library without hooks.
type roundHooks struct {
	tr     *tracer
	entry  string
	gap    string
	before func(round int)
	watch  topoWatch
	open   int // the span open between hook calls, or -1
}

func hookRounds[S comparable](net *fssga.Network[S], h *roundHooks) {
	h.open = -1
	h.watch.last = net.Topology()
	net.OnBeforeRound = h.before
	if !h.tr.on {
		return
	}
	net.OnBeforeRound = func(round int) {
		h.close()
		if h.before != nil {
			h.before(round)
		}
		h.watch.check(h.tr, net.Topology)
		h.open = h.tr.begin("fssga.round", h.entry)
	}
	net.OnRound = func(int) {
		h.close()
		if h.gap != "" {
			h.open = h.tr.begin(h.gap, "")
		}
	}
}

// close ends the span left open between hook calls: the gap after the
// last round, or the round span of a frontier round that found the
// network quiescent and so committed nothing. A driver's caller closes
// it when the driver returns.
func (h *roundHooks) close() {
	h.tr.end(h.open)
	h.open = -1
}

// unhook removes the hooks, so the network and the operation it refers
// to are not kept alive by each other (see README.md, Retained networks).
func unhook[S comparable](net *fssga.Network[S]) { net.OnBeforeRound, net.OnRound = nil, nil }

// engineCounts reports the engine-level counters every workload shares.
func engineCounts[S comparable](net *fssga.Network[S], steps *stepCounter, watch *topoWatch) map[string]float64 {
	agg := net.AggStats()
	m := map[string]float64{
		"graph.csr_rebuilds":      float64(watch.rebuilds),
		"fssga.agg_hubs":          float64(agg.Hubs),
		"fssga.agg_hub_views":     float64(agg.HubViews),
		"fssga.agg_tree_rebuilds": float64(agg.TreeRebuilds),
		"fssga.agg_leaf_rescans":  float64(agg.LeafRescans),
	}
	if agg.HubViews > 0 {
		m["fssga.agg_reuse_ratio"] = 1 - float64(agg.TreeRebuilds)/float64(agg.HubViews)
	}
	if steps != nil {
		s, c := steps.steps.Load(), steps.changed.Load()
		m["fssga.steps"], m["fssga.steps_changed"] = float64(s), float64(c)
		if s > 0 {
			m["fssga.step_useful_ratio"] = float64(c) / float64(s)
		}
	}
	return m
}

// ---- election-gnp ----

type electionOp struct {
	t     *election.Tracker
	steps *stepCounter // traced operations only
	hooks roundHooks
}

func setupElection(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("graph.build", "")
	g, err := graph.Build("gnp", electionN, seed)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("election-gnp set-up: %w", err)
	}
	op := &electionOp{}
	sp = tr.begin("fssga.new", "")
	if tr.on {
		// election.New with the automaton wrapped to count steps.
		op.steps = &stepCounter{}
		net := fssga.New[election.State](g, counting(election.Auto(), op.steps), func(int) election.State { return election.State{} }, seed)
		op.t = &election.Tracker{Net: net, RemainingPerPhase: []int{g.NumNodes()}}
	} else {
		op.t = election.New(g, seed)
	}
	tr.end(sp)
	// Tracker.Run checks Leaders and Remaining between rounds.
	op.hooks = roundHooks{tr: tr, entry: "SyncRound", gap: "election.check"}
	hookRounds(op.t.Net, &op.hooks)
	return op, nil
}

// electionLimits returns Tracker.Run's round budget and stability
// window for n nodes: a leader stable for 8 rounds, within about six
// times the typical election length.
func electionLimits(n int) (maxRounds, stableFor int) { return 70 * n, 8 }

// electionAfter is the number of rounds verify runs past the stop
// condition to check that the leader stays.
const electionAfter = 32

func (op *electionOp) prepare() {}

func (op *electionOp) solve(tr *tracer) (int, int, error) {
	n := op.t.Net.G.NumNodes()
	maxRounds, stableFor := electionLimits(n)
	rounds, ok := op.t.Run(maxRounds, stableFor)
	op.hooks.close()
	if !ok {
		return rounds, n, fmt.Errorf("election-gnp: no stable leader within %d rounds", maxRounds)
	}
	return rounds, n, nil
}

// verify checks the final states directly, then runs electionAfter more
// rounds and checks that the same node stays the only leader.
func (op *electionOp) verify(tr *tracer) error {
	sp := tr.begin("oracle", "")
	defer tr.end(sp)
	net := op.t.Net
	unhook(net)
	leader, err := checkElection(net.States(), net.G.Alive)
	if err != nil {
		return err
	}
	for r := 1; r <= electionAfter; r++ {
		net.SyncRound()
		now, err := checkElection(net.States(), net.G.Alive)
		if err != nil {
			return fmt.Errorf("%d rounds after the stop: %w", r, err)
		}
		if now != leader {
			return fmt.Errorf("election: leader moved from node %d to node %d %d rounds after the stop", leader, now, r)
		}
	}
	return nil
}

func (op *electionOp) counts() map[string]float64 {
	return engineCounts(op.t.Net, op.steps, &op.hooks.watch)
}

func (op *electionOp) close() {
	unhook(op.t.Net)
	op.t.Net.Close()
}

// ---- bfs-plaw-64k ----

type bfsOp struct {
	csr            *graph.CSR
	net            *fssga.Network[bfs.State]
	origin, target int
	steps          *stepCounter
	hooks          roundHooks
}

func setupBFS(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("graph.stream", "")
	c := graph.PLawCSR(plawBlock, plawCopies, plawEPN, seed)
	tr.end(sp)
	// The blocks form a ring joined at their node 0, so block copies/2 is
	// the farthest from the originator's block 0. Every block links its
	// nodes 0 and 1, so the target, node 1 of that block, lies
	// copies/2+1 hops from the originator whatever the seed. The found
	// report's round trip then sets the round count (2*(copies/2+1)+1),
	// not the seed's random block, so rounds move only when the algorithm
	// or the engine does.
	op := &bfsOp{csr: c, origin: 0, target: (plawCopies/2)*plawBlock + 1}
	auto := bfs.Auto()
	if tr.on {
		op.steps = &stepCounter{}
		auto = counting(auto, op.steps)
	}
	sp = tr.begin("fssga.new", "")
	op.net = fssga.NewFromCSR[bfs.State](c, auto, func(v int) bfs.State {
		return bfs.State{Originator: v == op.origin, Target: v == op.target, Label: bfs.NoLabel, Status: bfs.Waiting}
	}, seed)
	tr.end(sp)
	op.hooks = roundHooks{tr: tr, entry: "SyncRoundFrontier"}
	hookRounds(op.net, &op.hooks)
	return op, nil
}

// bfsMaxRounds bounds the wave; it finishes in under a hundred rounds.
const bfsMaxRounds = 10000

func (op *bfsOp) prepare() {}

func (op *bfsOp) solve(tr *tracer) (int, int, error) {
	live := op.csr.NumNodes()
	rounds, ok := op.net.RunSyncUntilQuiescent(bfsMaxRounds)
	op.hooks.close() // the final, quiescent round never commits
	if !ok {
		return rounds, live, fmt.Errorf("bfs-plaw-64k: not quiescent after %d rounds", bfsMaxRounds)
	}
	return rounds, live, nil
}

func (op *bfsOp) verify(tr *tracer) error {
	sp := tr.begin("oracle", "")
	defer tr.end(sp)
	return checkBFS(op.csr, op.origin, op.net.States())
}

func (op *bfsOp) counts() map[string]float64 { return engineCounts(op.net, op.steps, &op.hooks.watch) }

func (op *bfsOp) close() {
	unhook(op.net)
	op.net.Close()
}

// ---- census-faults-ckpt ----

type censusOp struct {
	cfg    census.Config
	g      *graph.Graph
	net    *fssga.Network[census.State]
	inj    *faults.Injector
	fs     *countingFS
	mgr    *checkpoint.Manager[census.State]
	steps  *stepCounter
	hooks  roundHooks
	writes int

	// Kept by prepare for verify: the topology before any fault and the
	// initial sketches.
	pristine *graph.Graph
	initial  []census.State
	// restored is verify's network, restored from the last checkpoint.
	restored *fssga.Network[census.State]
}

func setupCensus(seed int64, tr *tracer) (instance, error) {
	sp := tr.begin("graph.build", "")
	g := graph.RandomConnectedGNP(censusN, 8.0/censusN, rand.New(rand.NewSource(seed)))
	tr.end(sp)
	sched := faults.RandomSchedule(g, faultSteps, faultRate, faultNodes, rand.New(rand.NewSource(^seed)))
	cfg := census.Config{Bits: 12, Sketches: 2, Seed: seed}
	op := &censusOp{cfg: cfg, g: g, inj: faults.NewInjector(sched)}
	sp = tr.begin("fssga.new", "")
	if tr.on {
		// census.NewNetwork with the automaton wrapped to count steps.
		op.steps = &stepCounter{}
		op.net = fssga.New[census.State](g, counting(census.Auto(cfg), op.steps), func(v int) census.State {
			return census.InitialState(cfg, rand.New(rand.NewSource(cfg.Seed^(int64(v)+1)*0x5DEECE66D)))
		}, cfg.Seed)
	} else {
		net, err := census.NewNetwork(g, cfg)
		if err != nil {
			tr.end(sp)
			return nil, fmt.Errorf("census-faults-ckpt set-up: %w", err)
		}
		op.net = net
	}
	tr.end(sp)
	op.fs = &countingFS{FS: checkpoint.NewMemFS()}
	op.mgr = checkpoint.NewManager(op.net, checkpoint.NewStore(op.fs, 0), checkpoint.Meta{Target: "census", Workers: 1})
	op.hooks = roundHooks{tr: tr, entry: "SyncRound", before: func(round int) {
		sp := tr.begin("faults.advance", "")
		op.inj.Advance(op.g, round)
		tr.end(sp)
	}}
	hookRounds(op.net, &op.hooks)
	return op, nil
}

func (op *censusOp) prepare() {
	op.pristine = op.g.Clone()
	op.initial = append([]census.State(nil), op.net.States()...)
}

func (op *censusOp) solve(tr *tracer) (int, int, error) {
	for r := 1; r <= censusRounds; r++ {
		op.net.SyncRound()
		if r%censusEvery != 0 {
			continue
		}
		sp := tr.begin("checkpoint.write", "")
		op.mgr.Meta.FaultsApplied = len(op.inj.Applied())
		err := op.mgr.CheckpointDelta()
		tr.end(sp)
		if err != nil {
			return op.net.Rounds, op.g.NumNodes(), fmt.Errorf("census-faults-ckpt: checkpoint at round %d: %w", r, err)
		}
		op.writes++
	}
	return op.net.Rounds, op.g.NumNodes(), nil
}

// verify rebuilds the faulted topology from the pristine copy, restores
// the last checkpoint into a fresh network, and checks both it and the
// live network.
func (op *censusOp) verify(tr *tracer) error {
	faults.ApplyNow(op.pristine, op.inj.Applied())
	net, err := census.NewNetwork(op.pristine, op.cfg)
	if err != nil {
		return fmt.Errorf("census-faults-ckpt: restore target: %w", err)
	}
	op.restored = net
	mgr := checkpoint.NewManager(net, checkpoint.NewStore(op.fs, 0), checkpoint.Meta{})
	sp := tr.begin("checkpoint.restore", "")
	meta, err := mgr.Restore()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("census-faults-ckpt: restore: %w", err)
	}
	sp = tr.begin("oracle", "")
	defer tr.end(sp)
	if meta.Round != censusRounds {
		return fmt.Errorf("census-faults-ckpt: restored round %d, want %d", meta.Round, censusRounds)
	}
	if err := checkRestored(op.net.States(), net.States()); err != nil {
		return err
	}
	return checkCensus(op.g, op.initial, op.net.States())
}

func (op *censusOp) counts() map[string]float64 {
	m := engineCounts(op.net, op.steps, &op.hooks.watch)
	m["faults.applied"] = float64(len(op.inj.Applied()))
	m["checkpoint.writes"] = float64(op.writes)
	m["checkpoint.bytes"] = float64(op.fs.bytes)
	return m
}

// poolProbeRounds is the number of timed rounds per worker count.
const poolProbeRounds = 15

// poolProbe times full parallel rounds of the restored network (which
// steps through the unwrapped automaton) at 1, nproc and 2*nproc
// workers, and reports each median round time in microseconds.
func (op *censusOp) poolProbe() map[string]float64 {
	net := op.restored
	if net == nil {
		return nil
	}
	nproc := runtime.NumCPU()
	m := make(map[string]float64)
	for _, w := range []struct {
		name    string
		workers int
	}{{"w1", 1}, {"w_nproc", nproc}, {"w_2nproc", 2 * nproc}} {
		net.SyncRoundParallel(w.workers) // start the pool outside timing
		us := make([]float64, poolProbeRounds)
		for i := range us {
			start := time.Now()
			net.SyncRoundParallel(w.workers)
			us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		m["fssga.pool_round_p50_us."+w.name] = median(us)
	}
	if p := m["fssga.pool_round_p50_us.w_nproc"]; p > 0 {
		m["fssga.pool_speedup.w_nproc"] = m["fssga.pool_round_p50_us.w1"] / p
	}
	return m
}

func (op *censusOp) close() {
	// The hook closures refer back to op, and the engine never frees a
	// network once it has run a parallel round.
	unhook(op.net)
	op.net.Close()
	if op.restored != nil {
		op.restored.Close()
	}
}
