package analysis

// chanprotocol proves per-channel protocol facts over the identities
// the conc layer resolves. The engine's wake/stop discipline (shard.go)
// is the motivating instance: the round owner must never block on a
// worker's wake channel (constant work per activation — Def 3.11's
// scheduler does constant bookkeeping per delivered activation, so a
// round owner stalled on a full wake buffer would break the bound), and
// the stop channel is a close-only broadcast. Rules, in non-test code:
//
//   - close-at-most-once: a channel identity may have only one static
//     close site (a sync.Once body counts as the one site); additional
//     sites are flagged;
//   - no send-after-close: an identity that is closed anywhere must
//     have no send sites at all — close-signalled channels are
//     broadcast-only, and a send racing the close panics;
//   - wake sends are non-blocking: a send to a channel some goroutine
//     parks on (receives inside a spawned body) must be the comm of a
//     select with a default arm;
//   - buffered capacities are named constants: `make(chan T, 1)` hides
//     the protocol assumption the buffer size encodes; the capacity
//     must be a declared constant so the assumption has a name and a
//     doc comment.
//
// Audited exceptions carry //fssga:conc(reason).

import (
	"go/ast"
	"go/constant"
)

// Chanprotocol is the channel-protocol analyzer.
var Chanprotocol = &Analyzer{
	Name:      "chanprotocol",
	Doc:       "channel protocol facts: close-at-most-once, no send-after-close, non-blocking wake sends, named buffered capacities (audited exceptions: //fssga:conc(reason))",
	AppliesTo: DeterminismCritical,
	Directive: ConcDirective,
	Run:       runChanprotocol,
}

func runChanprotocol(pass *Pass) error {
	c := concCtxOf(pass)

	// Channels some goroutine parks on: receive sites inside spawn bodies.
	parked := make(map[*chanFacts]bool)
	for _, f := range c.chans {
		for _, op := range f.byKind(chanRecv) {
			if op.spawn != nil {
				parked[f] = true
			}
		}
	}

	for _, f := range c.chans {
		closes := f.byKind(chanClose)
		sends := f.byKind(chanSend)

		if len(closes) > 1 {
			for _, cl := range closes[1:] {
				pass.Reportf(cl.pos, "channel %q is closed at %d sites: close must have a single owner", f.name, len(closes))
			}
		}
		if len(closes) > 0 {
			for _, s := range sends {
				pass.Reportf(s.pos, "send on %q, which is closed in this package: a send racing the close panics", f.name)
			}
		}
		if parked[f] {
			for _, s := range sends {
				if !s.nonBlocking {
					pass.Reportf(s.pos, "blocking send on wake channel %q (a goroutine parks on it): use a buffered channel with select/default", f.name)
				}
			}
		}
		for _, mk := range f.byKind(chanMake) {
			if mk.capExpr != nil {
				c.checkCapacity(f.name, mk.capExpr, pass)
			}
		}
	}
	return nil
}

// checkCapacity enforces that a buffered channel's capacity is a named
// constant: a bare literal hides the protocol assumption, and a
// run-time value makes the buffer's blocking behaviour unprovable.
func (c *concCtx) checkCapacity(name string, capExpr ast.Expr, pass *Pass) {
	e := unparen(capExpr)
	tv, ok := c.pass.Info.Types[e]
	if !ok || tv.Value == nil {
		pass.Reportf(e.Pos(), "buffered capacity of %q is not a compile-time constant: the buffer's blocking behaviour is unprovable", name)
		return
	}
	if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
		return // make(chan T, 0) is just an unbuffered channel
	}
	switch e.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return // a declared constant: the assumption has a name
	}
	pass.Reportf(e.Pos(), "buffered capacity of %q must be a named constant, not a bare literal: the buffer size encodes a protocol assumption", name)
}
