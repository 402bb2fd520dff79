// Package census implements the Flajolet–Martin census algorithm described
// in Section 1 of Pritchard & Vempala (SPAA 2006): each node owns a k-bit
// vector, initialized by setting bit i with probability 2^-i, and the
// network repeatedly ORs vectors along edges until stable. Every node then
// estimates n from the first zero bit of its vector. The iterated OR is a
// semi-lattice function, making the algorithm 0-sensitive: it is correct
// on whatever portion of the network remains connected (experiment E1).
//
// To tame the variance of a single sketch, a node may carry several
// independent sketches (packed into one fixed-size state so the node
// remains finite-state); the estimate then uses the mean first-zero index,
// the standard Flajolet–Martin refinement.
package census

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// MaxSketches is the number of sketch slots in a State. Configurations may
// use 1..MaxSketches of them.
const MaxSketches = 8

// MaxBits is the maximum sketch width.
const MaxBits = 16

// phi is the Flajolet–Martin correction constant: E[2^R] ≈ phi·n, so
// n ≈ 2^R / phi. The paper's "1.3·2^ℓ" is the same estimator with
// 1/phi ≈ 1.29 rounded to 1.3.
const phi = 0.77351

// State is a node's census state: up to MaxSketches independent k-bit
// Flajolet–Martin sketches. The fixed-size array keeps it comparable and
// finite.
type State [MaxSketches]uint16

// Config parameterizes a census run.
type Config struct {
	Bits     int   // sketch width k; the paper requires k >= log2(n)
	Sketches int   // number of independent sketches (1..MaxSketches)
	Seed     int64 // master seed for sketch initialization
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Bits < 1 || c.Bits > MaxBits {
		return fmt.Errorf("census: Bits must be in 1..%d, got %d", MaxBits, c.Bits)
	}
	if c.Sketches < 1 || c.Sketches > MaxSketches {
		return fmt.Errorf("census: Sketches must be in 1..%d, got %d", MaxSketches, c.Sketches)
	}
	return nil
}

// InitialState draws a node's initial sketch vector: per sketch, bit i
// (1-based) is set with probability 2^-i, and with probability 2^-k no bit
// is set — i.e. a geometric draw capped at k.
func InitialState(cfg Config, rng *rand.Rand) State {
	var s State
	for j := 0; j < cfg.Sketches; j++ {
		pos := 0 // 1-based bit to set; 0 = none
		for i := 1; i <= cfg.Bits; i++ {
			if rng.Intn(2) == 0 {
				pos = i
				break
			}
		}
		if pos > 0 {
			s[j] = 1 << uint(pos-1)
		}
	}
	return s
}

// automaton ORs the node's state with all neighbour states — the
// iterated-OR semi-lattice update. It implements fssga.SaturatingAutomaton
// by concatenating the active sketch words into one integer index, so
// configurations with at most 256 states can run on hub aggregate trees;
// larger ones (including the paper's 14-bit × 8 default) report an
// oversized NumStates and keep the linear scan. Every configuration
// builds its views from interned state ids.
type automaton struct {
	bits     int // sketch width (Config.Bits)
	sketches int // active sketch count (Config.Sketches)
}

// NumStates implements fssga.DenseAutomaton.
func (a automaton) NumStates() int {
	total := a.bits * a.sketches
	if total < 1 || total >= 31 {
		return math.MaxInt // unconfigured or oversized: StateIndex would not fit an int
	}
	return 1 << total
}

// StateIndex implements fssga.DenseAutomaton. The engine calls it only
// for hub-tree state spaces (at most 256 states), where the
// concatenation fits an int.
func (a automaton) StateIndex(s State) int {
	idx := 0
	for j := 0; j < a.sketches; j++ {
		idx |= int(s[j]) << (j * a.bits)
	}
	return idx
}

// SaturationFootprint implements fssga.SaturatingAutomaton: Step ORs
// each distinct neighbour state into self, so only state presence
// matters. Verified against the exhaustive multiset semantics by
// internal/mc's witness check.
func (automaton) SaturationFootprint() (int, int) { return 1, 1 }

// Step implements fssga.Automaton.
func (automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	out := self
	view.ForEach(func(s State, _ int) {
		for j := range out {
			out[j] |= s[j]
		}
	})
	return out
}

// Auto returns the iterated-OR transition function for cfg, for engines
// (like the bounded model checker, internal/mc) that evaluate activations
// outside a Network. The automaton is deterministic: it never consults
// the RNG (randomness enters only through initial sketches).
func Auto(cfg Config) fssga.Automaton[State] {
	return automaton{bits: cfg.Bits, sketches: cfg.Sketches}
}

// NewNetwork builds the census network over g with randomized initial
// sketches derived from cfg.Seed.
func NewNetwork(g *graph.Graph, cfg Config) (*fssga.Network[State], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return fssga.New[State](g, automaton{bits: cfg.Bits, sketches: cfg.Sketches}, func(v int) State {
		rng := rand.New(rand.NewSource(cfg.Seed ^ (int64(v)+1)*0x5DEECE66D))
		return InitialState(cfg, rng)
	}, cfg.Seed), nil
}

// SubState reports whether a ≤ b in the sketch lattice: every bit set in
// any sketch of a is also set in b. The iterated-OR update only moves
// states up this order, which is the live monotonicity invariant the
// chaos harness checks every round.
func SubState(a, b State) bool {
	for j := range a {
		if a[j]&^b[j] != 0 {
			return false
		}
	}
	return true
}

// firstZero returns the 0-based index of the lowest zero bit of mask
// within the first `bits` bits (bits if none).
func firstZero(mask uint16, bits int) int {
	for i := 0; i < bits; i++ {
		if mask&(1<<uint(i)) == 0 {
			return i
		}
	}
	return bits
}

// Estimate converts a node's state into its population estimate
// n ≈ 2^mean(R) / phi, where R is the per-sketch first-zero index. With
// one sketch this is the paper's 1.3·2^ℓ estimator (ℓ counted 0-based).
func Estimate(s State, cfg Config) float64 {
	sum := 0.0
	for j := 0; j < cfg.Sketches; j++ {
		sum += float64(firstZero(s[j], cfg.Bits))
	}
	meanR := sum / float64(cfg.Sketches)
	return math.Pow(2, meanR) / phi
}

// Result summarizes a census run.
type Result struct {
	Rounds    int
	Converged bool
	// Estimates[v] is node v's estimate (0 for dead nodes).
	Estimates []float64
}

// Run executes the census synchronously until the OR diffusion is
// quiescent (or maxRounds), then collects every live node's estimate.
func Run(g *graph.Graph, cfg Config, maxRounds int) (Result, error) {
	net, err := NewNetwork(g, cfg)
	if err != nil {
		return Result{}, err
	}
	rounds, finished := net.RunSyncUntilQuiescent(maxRounds)
	res := Result{Rounds: rounds, Converged: finished, Estimates: make([]float64, g.Cap())}
	for v := 0; v < g.Cap(); v++ {
		if g.Alive(v) {
			res.Estimates[v] = Estimate(net.State(v), cfg)
		}
	}
	return res, nil
}
