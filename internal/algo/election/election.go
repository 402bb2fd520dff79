// Package election implements the randomized leader-election FSSGA of
// Pritchard & Vempala (SPAA 2006), Section 4.7 (Algorithm 4.4).
//
// The algorithm runs in phases. Every node starts "remaining"; in each
// phase each remaining node draws a random label in {0, 1} and grows a BFS
// cluster that propagates its label. Evidence of a second cluster —
// adjacent clusters carrying different root labels, two adjacent roots,
// inconsistent wavefronts, clashing verification colours, or colliding
// verification agents — triggers an NP_i broadcast (i = largest root label
// seen), after which every node advances its mod-3 phase counter; a
// remaining node whose label was 0 is eliminated by an NP_1. There is
// always at least one remaining node, and by Claim 4.1 each non-unique
// remainer is eliminated with probability >= 1/4 per phase, giving
// Θ(log n) phases.
//
// When a root's cluster construction finishes (detected by a completion
// echo wave), the root verifies its uniqueness à la Dolev: it draws a
// fresh random colour every round, the colours flow down the BFS
// successor relation, and any node seeing clashing colours raises NP
// (Claim 4.2: with >= 2 clusters an inconsistency appears within O(n)
// rounds with probability 1 − 2^{-n/2}). To wait the required ~n rounds
// with finite state, the root releases a Milgram traversal agent
// (Section 4.5) and declares itself leader when the agent returns.
//
// One design deviation, recorded in DESIGN.md: the embedded arm/hand agent
// does not use the paper's even/odd clock alternation (which cannot be
// phase-aligned across clusters); instead a newly created hand pauses one
// round (EFresh) so by-arm flags — refreshed every round — are current
// before it elects. The two constructions are behaviourally equivalent and
// the standalone, paper-faithful clocked version lives in
// internal/algo/traversal.
package election

import (
	"math/rand"

	"repro/internal/fssga"
	"repro/internal/graph"
)

// MStatus is the embedded Milgram-agent status.
type MStatus int8

// Agent statuses (compare internal/algo/traversal).
const (
	MBlank MStatus = iota
	MByArm
	MArm
	MHand
	MVisited
)

// MElect is the embedded election-tournament sub-state.
type MElect int8

// Tournament sub-states; EFresh is the one-round pause of a new hand.
const (
	ENone MElect = iota
	EFresh
	EHeads
	ETails
	EEliminated
	EFlip
	EWaiting
	ENoTails
	EOneTails
)

// NoDist is the ⋆ value of the BFS distance label.
const NoDist int8 = -1

// NoColour marks a node that has not yet adopted a verification colour.
const NoColour int8 = -1

// NoNP means the node is not currently broadcasting a new-phase signal.
const NoNP int8 = -1

// State is a node's complete election state. All fields have constant
// range, so the state space is finite as the model requires.
type State struct {
	Started bool  // first activation performed (label drawn)
	Remain  bool  // still a candidate
	Phase   uint8 // phase counter mod 3
	Label   uint8 // this phase's random label (remaining nodes)
	NP      int8  // NoNP, 0 or 1: new-phase broadcast with largest label
	Leader  bool

	// BFS cluster construction.
	Dist      int8  // NoDist or 0..2 (distance to my cluster's root, mod 3)
	RootLabel uint8 // label propagated from the root of my cluster
	Complete  bool  // completion echo has passed me

	// Dolev-style verification colour pulses. Epochs advance under the
	// α-synchronizer discipline (never while a cluster neighbour is an
	// epoch behind), and each epoch carries one root-chosen random
	// colour that floods the cluster by adjacency — sound for a single
	// cluster even when mod-3 distance labels are skew-twisted.
	CEpoch  int8 // pulse counter mod 3
	CColour int8 // NoColour, 0 or 1

	// Embedded Milgram verification agent.
	MSt MStatus
	MEl MElect
}

func (s State) labeled() bool { return s.Dist != NoDist }

func isMArmOrHand(t State) bool { return t.MSt == MArm || t.MSt == MHand }

// automaton implements Algorithm 4.4. The noVerification flag disables
// the uniqueness-verification channels — the Dolev-style colour clash rule
// and agent-collision detection — leaving only root-label comparison; it
// is the ablation DESIGN.md calls out: without verification, two
// same-label clusters cannot detect each other and duplicate leaders
// persist.
type automaton struct {
	noVerification bool
}

// numStates is the product of the State fields' value ranges — the
// mixed-radix capacity StateIndex packs into (933120). Election declares
// no saturation footprint, so the engine never calls StateIndex: its
// views are built from interned state ids like every automaton's.
const numStates = 2 * 2 * 3 * 2 * 3 * 2 * 4 * 2 * 2 * 3 * 3 * 5 * 9

// NumStates implements fssga.DenseAutomaton.
func (automaton) NumStates() int { return numStates }

// StateIndex implements fssga.DenseAutomaton: mixed-radix packing of every
// State field over its value range (the -1 sentinels NoNP, NoDist and
// NoColour shift their fields by one). Injective by construction, which
// TestStateIndexInjective verifies exhaustively.
func (automaton) StateIndex(s State) int {
	i := b2i(s.Started)
	i = i*2 + b2i(s.Remain)
	i = i*3 + int(s.Phase) // 0..2
	i = i*2 + int(s.Label) // 0..1
	i = i*3 + int(s.NP+1)  // NoNP(-1)..1
	i = i*2 + b2i(s.Leader)
	i = i*4 + int(s.Dist+1)    // NoDist(-1)..2
	i = i*2 + int(s.RootLabel) // 0..1
	i = i*2 + b2i(s.Complete)
	i = i*3 + int(s.CEpoch)    // 0..2
	i = i*3 + int(s.CColour+1) // NoColour(-1)..1
	i = i*5 + int(s.MSt)       // MBlank..MVisited
	return i*9 + int(s.MEl)    // ENone..EOneTails
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Step implements fssga.Automaton.
func (a automaton) Step(self State, view *fssga.View[State], rnd *rand.Rand) State {
	// First activation: draw a label and become a root.
	if !self.Started {
		return freshRoot(self, rnd)
	}

	phase := self.Phase
	behind := (phase + 2) % 3
	ahead := (phase + 1) % 3

	// 1. Wait for laggards from the previous phase.
	if view.Any(func(t State) bool { return t.Started && t.Phase == behind }) {
		return self
	}

	// 2. Enter the next phase.
	if self.NP != NoNP || view.Any(func(t State) bool { return t.Started && t.Phase == ahead }) {
		if self.NP == 1 && self.Remain && self.Label == 0 {
			self.Remain = false
		}
		self.Phase = ahead
		self.NP = NoNP
		self.Leader = false
		self.Complete = false
		self.CEpoch = 0
		self.CColour = NoColour
		self.MSt = MBlank
		self.MEl = ENone
		if self.Remain {
			return freshRootKeepPhase(self, rnd)
		}
		self.Dist = NoDist
		self.RootLabel = 0
		return self
	}

	// 3. Raise NP on any evidence of multiple clusters.
	if inconsistent(self, view, a.noVerification) || view.Any(func(t State) bool { return t.NP != NoNP }) {
		one := self.labeled() && self.RootLabel == 1
		if !one {
			one = view.Any(func(t State) bool {
				return (t.NP == 1) || (t.labeled() && t.RootLabel == 1)
			})
		}
		if one {
			self.NP = 1
		} else {
			self.NP = 0
		}
		return self
	}

	// 4. Participate in BFS cluster construction.
	if !self.labeled() {
		// Adopt from a labelled neighbour; minimum (Dist, RootLabel) keeps
		// the step deterministic (genuine conflicts raise NP in arm 3).
		found := false
		var bestDist int8
		var bestLabel uint8
		view.ForEach(func(t State, _ int) {
			if !t.labeled() {
				return
			}
			if !found || t.Dist < bestDist || (t.Dist == bestDist && t.RootLabel < bestLabel) {
				bestDist, bestLabel = t.Dist, t.RootLabel
				found = true
			}
		})
		if found {
			self.Dist = (bestDist + 1) % 3
			self.RootLabel = bestLabel
		}
		return self
	}
	if !self.Complete {
		// A node is complete once its whole neighbourhood is labelled.
		// (The paper suggests a completion echo over the BFS successor
		// relation, but staggered phase entry can twist the mod-3
		// distance labels into a successor *cycle*, deadlocking the echo
		// with no inconsistency to detect — observed in the wild on
		// G(64, p). The neighbourhood rule is local and cycle-free; the
		// earlier verification start it permits at worst yields the
		// premature leaders the paper already tolerates, which later
		// colour-pulse clashes demote.)
		if view.All(func(t State) bool { return t.labeled() }) {
			self.Complete = true
		}
		return self
	}

	// 5./6. Verification: colours and the Milgram agent.
	if self.Remain && self.Dist == 0 {
		// Root: drive the colour pulses; release the agent once; leader
		// when the agent returns.
		self = colourStep(self, view, rnd, true)
		switch self.MSt {
		case MBlank:
			self.MSt = MHand
			self.MEl = EFresh
		case MVisited:
			self.Leader = true
		default:
			self = agentStep(self, view, rnd)
		}
		return self
	}
	// Non-root: follow the colour pulses, then run agent logic.
	self = colourStep(self, view, rnd, false)
	return agentStep(self, view, rnd)
}

// freshRoot initializes a node as a remaining root at phase 0.
func freshRoot(s State, rnd *rand.Rand) State {
	s.Started = true
	s.Remain = true
	return freshRootKeepPhase(s, rnd)
}

// freshRootKeepPhase re-roots a remaining node at the start of a phase.
func freshRootKeepPhase(s State, rnd *rand.Rand) State {
	s.Label = uint8(rnd.Intn(2))
	s.Dist = 0
	s.RootLabel = s.Label
	s.Complete = false
	s.CEpoch = 0
	s.CColour = NoColour
	s.NP = NoNP
	s.Leader = false
	s.MSt = MBlank
	s.MEl = ENone
	return s
}

// inconsistent detects local evidence that more than one cluster (root)
// exists: the triggers of Algorithm 4.4.
func inconsistent(self State, view *fssga.View[State], noVerification bool) bool {
	// (a) Adjacent clusters with different root labels.
	if self.labeled() && view.Any(func(t State) bool {
		return t.labeled() && t.RootLabel != self.RootLabel
	}) {
		return true
	}
	// (b) Two adjacent roots. Only remaining nodes are roots: an
	// eliminated node at true distance 3 also carries Dist ≡ 0 (mod 3),
	// so the Remain flag is what distinguishes a real root.
	if self.Remain && self.Dist == 0 &&
		view.Any(func(t State) bool { return t.Remain && t.Dist == 0 }) {
		return true
	}
	// NOTE: one might expect an "unlabelled node sees two different
	// wavefront distances" rule here, but phases begin via an NP wave, so
	// nodes enter a phase at staggered times and a late joiner routinely
	// sees mixed distances from a single legitimate root. Such a rule
	// would raise a false NP every phase; multi-root evidence is instead
	// caught by (a), (b), (d) and (e).
	// (d) Colour-pulse clashes: within a single cluster every node in
	// epoch e carries the root's e-colour, so two same-epoch
	// participants with different colours witness a second root. The
	// comparison covers self-vs-neighbour and neighbour-vs-neighbour.
	if !noVerification && self.labeled() && self.Complete {
		clash := false
		seen := [3]int8{NoColour, NoColour, NoColour}
		if self.CColour != NoColour {
			seen[self.CEpoch] = self.CColour
		}
		view.ForEach(func(t State, _ int) {
			if !t.labeled() || !t.Complete || t.CColour == NoColour {
				return
			}
			if seen[t.CEpoch] != NoColour && seen[t.CEpoch] != t.CColour {
				clash = true
			}
			//fssga:nondet clash detection is order-independent: clash ends true iff some epoch carries two distinct colours in {self} ∪ view, whatever order they are folded in
			seen[t.CEpoch] = t.CColour
		})
		if clash {
			return true
		}
	}
	// (e) Colliding verification agents: two hands visible, or I hold a
	// hand and see another.
	if !noVerification {
		hands := view.Count(2, func(t State) bool { return t.MSt == MHand })
		if hands >= 2 || (self.MSt == MHand && hands >= 1) {
			return true
		}
	}
	return false
}

// colourStep advances the Dolev-style colour-pulse machinery for one
// verification participant. Epochs follow the α-synchronizer discipline:
// a node never advances while a cluster neighbour is an epoch behind (or
// not yet complete), so adjacent in-cluster epochs differ by at most one
// and the mod-3 representation is unambiguous. The root mints a fresh
// random colour per epoch; everyone else copies the colour from an
// epoch-ahead neighbour, so within one cluster "same epoch" implies
// "same colour" — the soundness the clash rule (d) relies on.
func colourStep(self State, view *fssga.View[State], rnd *rand.Rand, isRoot bool) State {
	e := self.CEpoch
	gated := view.Any(func(t State) bool {
		if !t.labeled() || !t.Complete {
			return true // wait until the whole neighbourhood participates
		}
		return t.CEpoch == (e+2)%3
	})
	if isRoot {
		if self.CColour == NoColour {
			self.CColour = int8(rnd.Intn(2)) // epoch 0 colour
			return self
		}
		if !gated {
			self.CEpoch = (e + 1) % 3
			self.CColour = int8(rnd.Intn(2))
		}
		return self
	}
	if gated {
		return self
	}
	adopt := int8(NoColour)
	view.ForEach(func(t State, _ int) {
		if t.labeled() && t.Complete && t.CEpoch == (e+1)%3 && t.CColour != NoColour &&
			(adopt == NoColour || t.CColour < adopt) {
			adopt = t.CColour
		}
	})
	if adopt != NoColour {
		self.CEpoch = (e + 1) % 3
		self.CColour = adopt
	}
	return self
}

// agentStep runs one step of the embedded (parity-free) Milgram machinery
// for a verification participant.
func agentStep(self State, view *fssga.View[State], rnd *rand.Rand) State {
	switch self.MSt {
	case MBlank, MByArm:
		// Refresh the by-arm flag every round.
		if view.Any(func(t State) bool { return t.MSt == MArm }) {
			self.MSt = MByArm
		} else {
			self.MSt = MBlank
		}
		if self.MSt != MBlank {
			self.MEl = ENone
			return self
		}
		// Contestant logic: react to an adjacent hand.
		var handElect MElect
		sawHand := false
		view.ForEach(func(t State, _ int) {
			if t.MSt == MHand {
				//fssga:nondet two adjacent hands raise NP via the hand-collision rule before this read matters; with at most one hand visible the capture is conflict-free
				handElect = t.MEl
				sawHand = true
			}
		})
		if !sawHand {
			self.MEl = ENone
			return self
		}
		switch handElect {
		case EFlip:
			if self.MEl == EHeads {
				self.MEl = EEliminated
			} else if self.MEl != EEliminated {
				self.MEl = coinElect(rnd)
			}
		case ENoTails:
			if self.MEl == EHeads {
				self.MEl = coinElect(rnd)
			}
		case EOneTails:
			if self.MEl == ETails {
				self.MSt = MHand
				self.MEl = EFresh
			} else {
				self.MEl = ENone
			}
		}
		return self

	case MArm:
		armHand := view.Count(2, isMArmOrHand)
		isRoot := self.Dist == 0 && self.Remain
		if (!isRoot && armHand <= 1) || (isRoot && armHand == 0) {
			self.MSt = MHand
			self.MEl = EFresh
		}
		return self

	case MHand:
		switch self.MEl {
		case EFresh:
			self.MEl = ENone
		case ENone:
			if view.None(func(t State) bool { return t.MSt == MBlank && t.Complete }) {
				self.MSt = MVisited
				self.MEl = ENone
			} else {
				self.MEl = EFlip
			}
		case EFlip, ENoTails:
			self.MEl = EWaiting
		case EWaiting:
			tails := view.Count(2, func(t State) bool {
				return t.MSt == MBlank && t.MEl == ETails
			})
			switch tails {
			case 0:
				self.MEl = ENoTails
			case 1:
				self.MEl = EOneTails
			default:
				self.MEl = EFlip
			}
		case EOneTails:
			self.MSt = MArm
			self.MEl = ENone
		}
		return self

	default: // MVisited
		return self
	}
}

func coinElect(rnd *rand.Rand) MElect {
	if rnd.Intn(2) == 0 {
		return EHeads
	}
	return ETails
}

// Tracker runs an election and keeps global statistics the finite-state
// nodes cannot hold.
type Tracker struct {
	Net *fssga.Network[State]
	// Rounds is the number of synchronous rounds executed.
	Rounds int
	// Phases is the number of phase transitions observed anywhere.
	Phases int
	// RemainingPerPhase[i] is the number of remaining nodes when phase i
	// was first observed (index 0 = initial).
	RemainingPerPhase []int
	lastPhaseMark     int
}

// Auto returns the election transition function, for engines (like the
// bounded model checker, internal/mc) that evaluate activations outside a
// Network. Unlike the other algorithms' automata this one is randomized —
// it consults the RNG for labels, colours, and coin flips — so callers
// must supply a deterministic per-activation RNG to get replayable runs.
func Auto() fssga.Automaton[State] { return automaton{} }

// New builds an election network over g.
func New(g *graph.Graph, seed int64) *Tracker {
	return newTracker(g, seed, false)
}

// NewWithoutVerification builds the ablated election of DESIGN.md:
// identical except that the uniqueness-verification channels (the Dolev
// colour-clash rule and agent-collision detection) are disabled, leaving
// only root-label comparison. Used by tests and benches to show the
// verification is load-bearing — without it, same-label clusters go
// undetected and multiple stable leaders can persist.
func NewWithoutVerification(g *graph.Graph, seed int64) *Tracker {
	return newTracker(g, seed, true)
}

func newTracker(g *graph.Graph, seed int64, noVerification bool) *Tracker {
	net := fssga.New[State](g, automaton{noVerification: noVerification}, func(v int) State { return State{} }, seed)
	t := &Tracker{Net: net}
	t.RemainingPerPhase = append(t.RemainingPerPhase, g.NumNodes())
	return t
}

// Remaining returns the current number of remaining live nodes.
func (t *Tracker) Remaining() int {
	n := 0
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) {
			s := t.Net.State(v)
			if !s.Started || s.Remain {
				n++
			}
		}
	}
	return n
}

// Leaders returns the live nodes currently in the leader state.
func (t *Tracker) Leaders() []int {
	var ls []int
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) && t.Net.State(v).Leader {
			ls = append(ls, v)
		}
	}
	return ls
}

// maxPhaseSeen tracks cumulative phase advances at node 0's component by
// watching any node's transitions; we count transitions at the node with
// the smallest live ID.
func (t *Tracker) probeNode() int {
	for v := 0; v < t.Net.G.Cap(); v++ {
		if t.Net.G.Alive(v) {
			return v
		}
	}
	return -1
}

// Round advances one synchronous round, updating phase statistics.
func (t *Tracker) Round() {
	probe := t.probeNode()
	var before uint8
	if probe >= 0 {
		before = t.Net.State(probe).Phase
	}
	t.Net.SyncRound()
	t.Rounds++
	if probe >= 0 {
		after := t.Net.State(probe).Phase
		if after != before {
			t.Phases++
			t.RemainingPerPhase = append(t.RemainingPerPhase, t.Remaining())
		}
	}
}

// Run executes rounds until a single stable leader has persisted for
// `stableFor` consecutive rounds, or maxRounds elapse. It reports the
// rounds used and whether a stable unique leader was reached.
func (t *Tracker) Run(maxRounds, stableFor int) (rounds int, elected bool) {
	stable := 0
	for r := 0; r < maxRounds; r++ {
		t.Round()
		if ls := t.Leaders(); len(ls) == 1 && t.Remaining() == 1 {
			stable++
			if stable >= stableFor {
				return t.Rounds, true
			}
		} else {
			stable = 0
		}
	}
	return t.Rounds, false
}
