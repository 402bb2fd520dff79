package fssga

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Sharded parallel rounds. The synchronous model is embarrassingly
// parallel — every node's successor state is a function of the immutable
// snapshot σ only (Pritchard's divide-and-conquer observation for
// symmetric FSAs: order-invariant folds partition over disjoint node
// shards with no cross-shard coordination) — so the engine divides the
// ID space into contiguous, cache-line-aligned shards and lets a
// persistent worker pool claim them off an atomic cursor:
//
//   - Contiguous ranges keep each worker streaming through the CSR
//     offset/neighbour arrays and the state vectors in order, and make
//     the writes of distinct workers land in disjoint regions of the
//     double-buffered `next` vector.
//   - Shard boundaries are multiples of shardAlign (64) nodes, so two
//     workers never write the same cache line of `next` (64 states of
//     any size ≥ 1 byte cover at least one 64-byte line).
//   - The pool's goroutines persist across rounds, parked on cheap
//     per-worker wake channels — no per-round goroutine spawning.
//   - Work stealing over ~8 shards per worker absorbs degree skew
//     without changing results: whichever worker claims a shard, the
//     nodes' private RNG streams and the snapshot make the outcome
//     bit-identical to serial execution.
const (
	// shardAlign is the shard-boundary alignment in nodes. 64 states are
	// at least 64 bytes for every state type, so aligned shards write
	// disjoint cache lines of the next-state vector.
	shardAlign = 64
	// shardsPerWorker over-partitions the ID space so the atomic-cursor
	// work stealing can rebalance uneven shards (degree skew, dead
	// regions, frontier-skipped ranges).
	shardsPerWorker = 8
)

// shardSpan returns the shard length for n nodes and the given worker
// count: roughly shardsPerWorker shards per worker, rounded up to the
// alignment.
func shardSpan(n, workers int) int {
	span := (n + workers*shardsPerWorker - 1) / (workers * shardsPerWorker)
	span = (span + shardAlign - 1) / shardAlign * shardAlign
	if span < shardAlign {
		span = shardAlign
	}
	return span
}

// shardPool is a persistent set of worker goroutines executing one
// round body at a time. Workers park on per-worker wake channels
// between rounds; round() publishes the body, wakes everyone, and waits
// for completion. The pool is created lazily by the first parallel
// round, grows if a later round asks for more workers, and is torn down
// by Network.Close or the pool owner's finalizer.
//
// The pool is panic-safe: a body panic is recovered in the worker (the
// goroutine survives and keeps serving rounds), the first panic of a
// round is recorded, and round() reports it to the supervisor
// (supervisor.go), which discards and retries the round. mu serializes
// round() against close() so a Close racing an in-flight round waits
// for it instead of stranding wg.Wait.
type shardPool struct {
	workers int
	wake    []chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
	cursor  atomic.Int64 // next shard index to claim
	body    func(worker int)
	closed  atomic.Bool
	once    sync.Once
	mu      sync.Mutex                  // serializes round vs close
	perr    atomic.Pointer[workerPanic] // first panic of the current round
}

// workerPanic records one recovered worker panic.
type workerPanic struct {
	worker int
	value  any
	stack  string
}

// wakeChanCap is the wake-channel buffer: one slot, so the round owner
// can hand a worker its token without a rendezvous. A worker always
// drains its token before wg.Done, and round() holds p.mu for the whole
// round, so at most one token is ever outstanding per worker — the
// buffer can never be full when round() offers the next one.
const wakeChanCap = 1

func newShardPool(workers int) *shardPool {
	p := &shardPool{
		workers: workers,
		wake:    make([]chan struct{}, workers),
		stop:    make(chan struct{}),
	}
	for w := range p.wake {
		ch := make(chan struct{}, wakeChanCap)
		p.wake[w] = ch
		go func(id int) {
			for {
				select {
				case <-p.stop:
					return
				case <-ch:
					p.runBody(id)
				}
			}
		}(w)
	}
	return p
}

// runBody executes the published round body for one worker, converting
// a panic into a recorded workerPanic. wg.Done always runs, so round()
// never deadlocks on a panicking body.
func (p *shardPool) runBody(id int) {
	defer func() {
		if r := recover(); r != nil {
			p.perr.CompareAndSwap(nil, &workerPanic{
				worker: id,
				value:  r,
				stack:  string(debug.Stack()),
			})
		}
		p.wg.Done()
	}()
	p.body(id)
}

// round runs body(worker) on every pool worker and blocks until all
// return. The body reference is dropped afterwards so the pool never
// pins a network (or its state vectors) between rounds. It returns the
// first recovered worker panic (nil for a clean round), or ErrPoolClosed
// if the pool was closed before the round could start.
func (p *shardPool) round(body func(worker int)) (*workerPanic, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	p.perr.Store(nil)
	p.body = body
	p.wg.Add(p.workers)
	for _, ch := range p.wake {
		// Non-blocking by construction: the previous round's wg.Wait
		// proved every worker consumed its token, so the 1-slot buffer is
		// empty and the default branch is unreachable. Keeping the select
		// makes that a checkable fact (chanprotocol/lockorder) instead of
		// an argument in a comment: the round owner can never park on a
		// worker's wake channel while holding p.mu.
		select {
		case ch <- struct{}{}:
		default:
			// A full buffer would mean a wake we issued was never consumed;
			// the worker already has its token, so dropping this one is
			// correct as well as impossible.
		}
	}
	p.wg.Wait()
	p.body = nil
	return p.perr.Load(), nil
}

// close stops the worker goroutines. Idempotent; an in-flight round
// finishes first (mu), so workers are never stopped mid-body.
func (p *shardPool) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.once.Do(func() {
		p.closed.Store(true)
		close(p.stop)
	})
}

// poolOwner carries the finalizer that stops an abandoned network's
// pool. It cannot sit on the Network: the network's RNG sources point
// back into it, and the runtime never frees a finalizer object reachable
// from itself. The owner points only at the pool, so it dies with the
// network.
type poolOwner struct{ pool *shardPool }

// ensurePool returns a live pool with at least `workers` workers,
// creating or growing it as needed, and sizes the per-worker view
// scratch to match. The pool owner's finalizer tears the pool down if
// the caller never calls Close — pool goroutines reference only the
// pool, never the network, so an abandoned network stays collectable.
func (net *Network[S]) ensurePool(workers int) *shardPool {
	net.poolMu.Lock()
	defer net.poolMu.Unlock()
	if net.pool == nil || net.pool.closed.Load() || net.pool.workers < workers {
		if net.pool != nil {
			net.pool.close()
		}
		net.pool = newShardPool(workers)
		if net.owner == nil {
			net.owner = &poolOwner{}
			runtime.SetFinalizer(net.owner, func(o *poolOwner) { o.pool.close() })
		}
		net.owner.pool = net.pool
	}
	net.ensureWorkers(net.pool.workers)
	return net.pool
}

// Close stops the persistent worker pool's goroutines. It is safe to
// call multiple times, on networks that never ran a parallel round, and
// concurrently with parallel rounds (the round either completes first
// or retries on a fresh pool); a network whose Close was never called
// is cleaned up by its pool owner's finalizer. A parallel round after Close
// transparently starts a fresh pool.
func (net *Network[S]) Close() {
	net.poolMu.Lock()
	defer net.poolMu.Unlock()
	if net.pool != nil {
		net.pool.close()
	}
}

// SyncRoundParallel performs one synchronous round on the shard pool
// with the given number of workers. Because every node has a private
// random stream and reads only the immutable snapshot, the result is
// bit-identical to SyncRound regardless of worker count or shard
// assignment. Small networks (at most one shard) fall back to the
// serial round.
//
// The round is supervised: a worker panic is recovered and the round
// retried (see supervisor.go); only after retry exhaustion does the
// structured *PanicError propagate as a panic. Use TrySyncRoundParallel
// to receive it as an error instead.
func (net *Network[S]) SyncRoundParallel(workers int) {
	if err := net.TrySyncRoundParallel(workers); err != nil {
		panic(err)
	}
}

// TrySyncRoundParallel is SyncRoundParallel returning errors instead of
// panicking: ErrConcurrentRound if another round is in flight on this
// network, a *PanicError if a worker panic survived every supervised
// retry, or an ErrPoolClosed-wrapping error if a concurrent Close won
// the pool race on every attempt. On error the network is unchanged:
// still on its last committed round, RNG streams rewound.
func (net *Network[S]) TrySyncRoundParallel(workers int) error {
	_, err := net.parallelRound("SyncRoundParallel", workers, false)
	return err
}

// shardFrontier is the shard-granular frontier bookkeeping for
// SyncRoundParallelFrontier: per-shard dirty flags from the last
// committed parallel frontier round, plus the conservative neighbour
// shard range of each shard, precomputed per (CSR snapshot, span).
type shardFrontier struct {
	ok     bool       // false: next parallel frontier round re-steps everything
	csr    *graph.CSR // snapshot the metadata below was computed for
	span   int        // shard length the metadata was computed for
	dirty  []bool     // dirty[s]: some node of shard s changed last round
	active []bool     // scratch: shards to re-step this round
	// nbrLo/nbrHi bound the shards containing any neighbour of any node
	// of shard s (inclusive, always covering s itself). Contiguous ID
	// ranges make this a tight bound on lattice-like topologies (a grid
	// row's neighbours live within ±cols IDs) and a conservative one on
	// expanders, where skipping simply never triggers.
	nbrLo, nbrHi []int32
}

// rebuild recomputes the shard metadata for snapshot c at the given
// span and marks the frontier invalid (all shards re-step next round).
func (f *shardFrontier) rebuild(c *graph.CSR, span int) {
	n := c.Cap()
	shards := (n + span - 1) / span
	f.csr, f.span = c, span
	f.dirty = resize(f.dirty, shards)
	f.active = resize(f.active, shards)
	f.nbrLo = resizeInt32(f.nbrLo, shards)
	f.nbrHi = resizeInt32(f.nbrHi, shards)
	for s := 0; s < shards; s++ {
		lo, hi := s*span, (s+1)*span
		if hi > n {
			hi = n
		}
		mn, mx := int32(s), int32(s)
		for v := lo; v < hi; v++ {
			for _, u := range c.Neighbors(v) {
				t := u / int32(span)
				if t < mn {
					mn = t
				}
				if t > mx {
					mx = t
				}
			}
		}
		f.nbrLo[s], f.nbrHi[s] = mn, mx
	}
	f.ok = false
}

func resize(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

func resizeInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// SyncRoundParallelFrontier performs one frontier-driven synchronous
// round on the shard pool: a shard is re-stepped only if it, or a shard
// containing neighbours of its nodes, changed in the previous parallel
// frontier round; quiesced regions cost one state memcpy. Like
// SyncRoundFrontier it reports whether any state changed and commits
// nothing (no Rounds increment, no OnRound) on a quiescent round, and
// like it the trajectory is bit-identical to full rounds — re-stepping
// a clean node of a dirty shard is harmless because a deterministic
// Step of an unchanged neighbourhood reproduces the same state.
//
// Deterministic automata only, exactly as SyncRoundFrontier: skipped
// nodes do not consume random draws.
func (net *Network[S]) SyncRoundParallelFrontier(workers int) (changed bool) {
	changed, err := net.TrySyncRoundParallelFrontier(workers)
	if err != nil {
		panic(err)
	}
	return changed
}

// TrySyncRoundParallelFrontier is SyncRoundParallelFrontier returning
// errors instead of panicking, under the same supervision and with the
// same error surface as TrySyncRoundParallel. On error no state is
// committed and the shard frontier is invalidated (the next frontier
// round re-steps everything).
func (net *Network[S]) TrySyncRoundParallelFrontier(workers int) (changed bool, err error) {
	return net.parallelRound("SyncRoundParallelFrontier", workers, true)
}

// parallelRound is the one shard-pool round behind both parallel entry
// points (named by name in panics). A full round steps every shard and
// always commits; a frontier round steps only the shards that changed,
// or neighbour one that changed, in the previous parallel frontier round,
// and commits nothing when no state changed.
func (net *Network[S]) parallelRound(name string, workers int, frontier bool) (changed bool, err error) {
	if workers < 1 {
		panic(fmt.Sprintf("fssga: %s needs workers >= 1, got %d", name, workers))
	}
	if !net.roundActive.CompareAndSwap(false, true) {
		return false, ErrConcurrentRound
	}
	defer net.roundActive.Store(false)
	n := len(net.states)
	if workers == 1 || n <= shardAlign { // the serial rounds fire the pre-round hook themselves
		if frontier {
			return net.SyncRoundFrontier(), nil
		}
		net.SyncRound()
		return true, nil
	}
	net.beforeRound() // exactly once, even across supervised retries
	c := net.topo()
	net.ensureAgg(c) // serially, before any worker can touch a hub tree
	span := shardSpan(n, workers)
	f := &net.shardFront
	if f.csr != c || f.span != span {
		f.rebuild(c, span) // topology or layout changed: all shards re-step
	}
	shards := len(f.dirty)
	for s := 0; s < shards; s++ {
		act := !frontier || !f.ok
		for t := f.nbrLo[s]; !act && t <= f.nbrHi[s]; t++ {
			act = f.dirty[t]
		}
		f.active[s] = act
	}

	snapshot, next := net.states, net.next
	ids, nextIDs := net.ids, net.nextIDBuffer()
	// f.active is computed above and only read by attempts; f.dirty, next
	// and nextIDs are fully rewritten by every attempt, so a discarded
	// attempt leaves nothing behind.
	//fssga:hotpath
	err = net.runSupervised(workers, func(pool *shardPool, w int) {
		sc := net.workers[w]
		for {
			s := int(pool.cursor.Add(1)) - 1
			if s >= shards {
				return
			}
			lo := s * span
			hi := lo + span
			if hi > n {
				hi = n
			}
			if !f.active[s] {
				copy(next[lo:hi], snapshot[lo:hi])
				copy(nextIDs[lo:hi], ids[lo:hi])
				f.dirty[s] = false
				continue
			}
			dirty := false
			for v := lo; v < hi; v++ {
				nbrs := c.Neighbors(v)
				if len(nbrs) == 0 {
					next[v] = snapshot[v]
					nextIDs[v] = ids[v]
					continue
				}
				view := net.viewFor(sc, v, nbrs)
				//fssga:alloc(Step is automaton-interface dispatch; each automaton's Step is vetted separately)
				s2 := net.auto.Step(snapshot[v], view, net.rngs[v])
				next[v] = s2
				nextIDs[v] = net.nextID(v, s2)
				if s2 != snapshot[v] {
					dirty = true
				}
			}
			f.dirty[s] = dirty
		}
	})
	if err != nil {
		// A failed attempt may have claimed only some shards, so the
		// dirty flags are inconsistent: force a full re-step next time.
		f.ok = false
		return false, err
	}
	for s := 0; s < shards && !changed; s++ {
		changed = f.dirty[s]
	}
	// The dirty flags are exact after a frontier round. A full round
	// leaves both frontiers stale, as every full round does.
	f.ok = frontier
	if frontier && !changed {
		// Quiescent: all shards clean, nothing committed; subsequent
		// calls skip every shard.
		return false, nil
	}
	// Inactive shards were memcpy'd, so only active ones can differ.
	for s := 0; s < shards; s++ {
		if f.active[s] {
			net.commitIDs(s*span, min((s+1)*span, n))
		}
	}
	net.states, net.next = net.next, net.states
	net.ids, net.nextIDs = net.nextIDs, net.ids
	net.Rounds++
	net.frontierOK = false // node-granular bookkeeping is now stale
	if net.OnRound != nil {
		net.OnRound(net.Rounds)
	}
	return true, nil
}

// RunSyncParallelUntilQuiescent is RunSyncUntilQuiescent on the shard
// pool: frontier-driven parallel rounds until one changes no state, up
// to maxRounds. Deterministic automata only. States, round counts and
// OnRound invocations are identical to the serial variant.
func (net *Network[S]) RunSyncParallelUntilQuiescent(maxRounds, workers int) (rounds int, finished bool) {
	for r := 0; r < maxRounds; r++ {
		if !net.SyncRoundParallelFrontier(workers) {
			return r, true
		}
	}
	return maxRounds, net.Quiescent()
}
