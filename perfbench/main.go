// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the paper's algorithms in a closed loop — one operation at
// a time, each operation being set-up, solve and verify — for a fixed
// time, checks every output against an oracle, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload election-gnp --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it alternates untraced and traced operations and
// reports the per-layer metrics of the traced ones, plus the tracing
// overhead; the spans are written under .bench_build/spans/ when the run
// ends. Run it through run.sh, which builds it from source first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
	"unsafe"
)

// opSample is one measured operation.
type opSample struct {
	traced   bool
	setupS   float64 // per set-up, averaged over a timed batch
	solveS   float64
	rounds   int
	live     int
	baseMiB  float64 // settled HeapAlloc before set-up
	spanMiB  float64 // of which the tracer's span buffer
	heapMiB  float64 // HeapAlloc growth across set-up, after a forced GC
	allocMiB float64 // TotalAlloc growth across solve
	layers   map[string]float64
	spanLo   int // the operation's spans are tracer.spans[spanLo:spanHi]
	spanHi   int
}

type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	name := flag.String("workload", "", "workload: election-gnp, bfs-plaw-64k or census-faults-ckpt")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed (held-out seed for later claims: 2)")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long to measure")
	traceFlag := flag.Int("trace", 0, "1 for the traced per-layer run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || flag.NArg() > 0 || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> [--seed n] [--seconds s] [--trace 0|1]; unknown workload %q or bad flag\n", *name)
		return 2
	}
	cfg.w, cfg.trace = w, *traceFlag == 1
	fmt.Printf("workload %s seed %d: %s\n", w.name, cfg.seed, w.params)

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	mc := startMachine()

	tr := newTracer(false)
	var samples []opSample
	attempted, failed := 0, 0
	firstRounds := -1 // every operation of a run has the same input
	measure := func(traced bool, batch int) {
		attempted++
		tr.on = traced
		s, err := runOp(cfg, tr, batch)
		tr.on = false
		if err == nil && firstRounds >= 0 && s.rounds != firstRounds {
			err = fmt.Errorf("ran %d rounds where the run's first operation ran %d", s.rounds, firstRounds)
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: operation %d failed: %v\n", w.name, cfg.seed, attempted, err)
			return
		}
		if firstRounds < 0 {
			firstRounds = s.rounds
		}
		samples = append(samples, s)
	}

	batch := w.batch
	if cfg.trace {
		batch = 1
	}
	measure(false, batch) // warm-up, discarded
	samples = samples[:0]
	start := time.Now()
	for i := 0; ; i++ {
		measure(cfg.trace && i%2 == 1, batch)
		done := time.Since(start).Seconds() >= cfg.seconds
		if cfg.trace {
			done = done && i%2 == 1
		} else {
			done = done && i >= 2
		}
		if done {
			break
		}
	}
	ctx := mc.finish()

	var metrics map[string]metric
	if cfg.trace {
		metrics = layerReport(samples, tr)
		spans := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, cfg.seed)
		if err := tr.writeSpans(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			failed++
		}
	} else {
		metrics = endToEndReport(samples)
	}
	ctxLine, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", ctxLine)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	fmt.Println(string(out))
	if failed > 0 {
		return 1
	}
	return 0
}

// runOp runs one operation: batch set-ups (the last one kept), then
// solve and verify. Forced GCs before set-up and between set-up and
// solve stay outside timing.
func runOp(cfg config, tr *tracer, batch int) (s opSample, err error) {
	s = opSample{traced: tr.on, spanLo: len(tr.spans)}
	tr.op++
	opSpan := tr.begin("op", "")
	defer func() {
		tr.end(opSpan)
		s.spanHi = len(tr.spans)
	}()

	s.baseMiB = settledHeapMiB()
	s.spanMiB = float64(cap(tr.spans)) * float64(unsafe.Sizeof(span{})) / (1 << 20)
	sp := tr.begin("setup", "")
	var inst instance
	start := time.Now()
	for b := 0; b < batch; b++ {
		if inst != nil {
			inst.close()
		}
		if inst, err = cfg.w.setup(cfg.seed, tr); err != nil {
			tr.end(sp)
			return s, err
		}
	}
	s.setupS = time.Since(start).Seconds() / float64(batch)
	tr.end(sp)
	defer inst.close()

	// The heap is read before prepare, which keeps the oracle's copies.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heapMiB = float64(ms.HeapAlloc)/(1<<20) - s.baseMiB
	inst.prepare()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	sp = tr.begin("solve", "")
	start = time.Now()
	rounds, live, err := inst.solve(tr)
	s.solveS = time.Since(start).Seconds()
	tr.end(sp)
	runtime.ReadMemStats(&ms)
	s.allocMiB = float64(ms.TotalAlloc-alloc0) / (1 << 20)
	s.rounds, s.live = rounds, live
	if err != nil {
		return s, err
	}
	if tr.on {
		s.layers = inst.counts()
	}

	sp = tr.begin("verify", "")
	err = inst.verify(tr)
	tr.end(sp)
	if err != nil {
		return s, err
	}
	if tr.on {
		if p, ok := inst.(interface{ poolProbe() map[string]float64 }); ok {
			for k, v := range p.poolProbe() {
				s.layers[k] = v
			}
		}
	}
	return s, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics: name, unit, and the per
// operation value.
var endToEnd = []struct {
	name, unit string
	value      func(s opSample) float64
}{
	{"setup_s", "s", func(s opSample) float64 { return s.setupS }},
	{"solve_s", "s", func(s opSample) float64 { return s.solveS }},
	{"node_rounds_per_s", "1/s", func(s opSample) float64 { return float64(s.live) * float64(s.rounds) / s.solveS }},
	{"rounds", "count", func(s opSample) float64 { return float64(s.rounds) }},
	{"heap_live_mib", "MiB", func(s opSample) float64 { return s.heapMiB }},
	{"alloc_mib", "MiB", func(s opSample) float64 { return s.allocMiB }},
}

// endToEndReport prints each end-to-end metric's median, tail percentile
// and sample count, and returns the medians.
func endToEndReport(samples []opSample) map[string]metric {
	out := make(map[string]metric)
	fmt.Printf("%-18s %-6s %14s %20s %4s\n", "metric", "unit", "median", "tail", "n")
	for _, m := range endToEnd {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = m.value(s)
		}
		med := median(xs)
		tail := "- (n<20)"
		if p, ok := tailPercentile(len(xs)); ok {
			tail = fmt.Sprintf("p%g=%.6g", p, percentile(xs, p))
		}
		fmt.Printf("%-18s %-6s %14.6g %20s %4d\n", m.name, m.unit, med, tail, len(xs))
		out[m.name] = metric{med, m.unit}
	}
	return out
}

// roundEntries are the engine's round entry points the workloads drive:
// election and census full serial rounds, bfs frontier rounds. Parallel
// rounds are timed by census's pool probe instead (see README.md).
var roundEntries = []string{"SyncRound", "SyncRoundFrontier"}

// perLayer lists the per-layer metrics of a traced run with their units.
// A layer a workload bypasses reports 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"graph.build_s", "s"}, {"graph.stream_s", "s"}, {"graph.csr_s", "s"}, {"graph.csr_rebuilds", "count"},
		{"fssga.new_s", "s"},
	}
	for _, e := range roundEntries {
		m = append(m, [2]string{"fssga.round_p50_us." + e, "us"}, [2]string{"fssga.round_p99_us." + e, "us"}, [2]string{"fssga.round_busy_s." + e, "s"})
	}
	return append(m, [][2]string{
		{"fssga.steps", "count"}, {"fssga.steps_changed", "count"}, {"fssga.step_useful_ratio", "ratio"},
		{"fssga.agg_hubs", "count"}, {"fssga.agg_hub_views", "count"}, {"fssga.agg_tree_rebuilds", "count"},
		{"fssga.agg_leaf_rescans", "count"}, {"fssga.agg_reuse_ratio", "ratio"},
		{"fssga.pool_round_p50_us.w1", "us"}, {"fssga.pool_round_p50_us.w_nproc", "us"},
		{"fssga.pool_round_p50_us.w_2nproc", "us"}, {"fssga.pool_speedup.w_nproc", "ratio"},
		{"election.check_s", "s"},
		{"faults.advance_s", "s"}, {"faults.applied", "count"},
		{"checkpoint.write_s", "s"}, {"checkpoint.writes", "count"}, {"checkpoint.bytes", "count"}, {"checkpoint.restore_s", "s"},
		{"fssga.retained_mib_per_op", "MiB"},
		{"verify_s", "s"},
		{"trace.overhead", "ratio"}, {"trace.coverage", "ratio"},
	}...)
}

// spanLayers maps span keys to the per-layer metric of their self time.
var spanLayers = map[string]string{
	"graph.build":                   "graph.build_s",
	"graph.stream":                  "graph.stream_s",
	"graph.csr":                     "graph.csr_s",
	"fssga.new":                     "fssga.new_s",
	"fssga.round/SyncRound":         "fssga.round_busy_s.SyncRound",
	"fssga.round/SyncRoundFrontier": "fssga.round_busy_s.SyncRoundFrontier",
	"election.check":                "election.check_s",
	"faults.advance":                "faults.advance_s",
	"checkpoint.write":              "checkpoint.write_s",
	"checkpoint.restore":            "checkpoint.restore_s",
}

// layerReport derives the per-layer metrics from the traced operations'
// spans and counters (medians over operations; round latencies pooled
// over every traced round) and prints them.
func layerReport(samples []opSample, tr *tracer) map[string]metric {
	perOp := make(map[string][]float64)
	roundUS := make(map[string][]float64)
	var tracedSolve, plainSolve []float64
	for _, s := range samples {
		if !s.traced {
			plainSolve = append(plainSolve, s.solveS)
			continue
		}
		tracedSolve = append(tracedSolve, s.solveS)
		vals := make(map[string]float64)
		for k, v := range s.layers {
			vals[k] = v
		}
		for key, d := range selfTimes(tr.spans, s.spanLo, s.spanHi) {
			if name, ok := spanLayers[key]; ok {
				vals[name] += d.Seconds()
			}
		}
		for i := s.spanLo; i < s.spanHi; i++ {
			sp := tr.spans[i]
			switch sp.Name {
			case "fssga.round":
				roundUS[sp.Detail] = append(roundUS[sp.Detail], float64(sp.dur().Nanoseconds())/1e3)
			case "verify":
				vals["verify_s"] = sp.dur().Seconds()
			case "solve":
				vals["trace.coverage"] = coverage(tr.spans, i, s.spanLo, s.spanHi)
			}
		}
		for k, v := range vals {
			perOp[k] = append(perOp[k], v)
		}
	}
	out := make(map[string]metric)
	for _, m := range perLayer() {
		out[m[0]] = metric{median(perOp[m[0]]), m[1]}
	}
	for _, e := range roundEntries {
		out["fssga.round_p50_us."+e] = metric{percentile(roundUS[e], 50), "us"}
		out["fssga.round_p99_us."+e] = metric{percentile(roundUS[e], 99), "us"}
	}
	if n := len(samples); n > 1 {
		first, last := samples[0], samples[n-1]
		grow := (last.baseMiB - last.spanMiB) - (first.baseMiB - first.spanMiB)
		out["fssga.retained_mib_per_op"] = metric{grow / float64(n-1), "MiB"}
	}
	if p := median(plainSolve); p > 0 {
		out["trace.overhead"] = metric{median(tracedSolve) / p, "ratio"}
	}
	names := make([]string, 0, len(out))
	for k := range out {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("traced operations: %d, untraced: %d\n", len(tracedSolve), len(plainSolve))
	for _, k := range names {
		fmt.Printf("%-36s %-6s %14.6g\n", k, out[k].Unit, out[k].Value)
	}
	return out
}
