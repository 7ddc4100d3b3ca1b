package bounds

import (
	"sync"
	"sync/atomic"

	"repro/internal/cuts"
	"repro/internal/lp"
)

// LPRState is the persistent warm-start state threaded through consecutive
// LPR estimations. It carries the previous node's LP basis, snapshotted by
// lp.Workspace.SolveWarm under search-stable keys (engine constraint indices
// for y variables, pb.Var for w variables and rows), so the next node's LP —
// usually differing in a handful of columns and rows — starts from a
// near-optimal basis instead of the slack crash.
//
// It also holds every buffer an estimation builds into: the lp.Workspace
// (tableau rows and simplex scratch) and the x-space problem, cut record,
// dual LP and warm keys (lprScratch). A steady-state estimation therefore
// allocates only what its Result returns, and nothing in a Result aliases
// these buffers. The buffers outlive the state: it takes them from a
// package-level pool at its first estimation and gives them back on Release
// (the search releases at the end of its solve and when it demotes the
// estimator), so the next solve — of any size, in any goroutine — starts
// from a tableau that has already grown instead of allocating one. Every
// solve resets the buffers it uses to exactly the state fresh ones would
// have, so reuse never changes a result.
//
// Soundness is independent of this state: LPR recomputes its bound from the
// returned multipliers via weak duality, and the warm solve falls back to a
// cold solve whenever the mapped basis is poor or numerically suspect. The
// state is therefore a pure accelerator; invalidating it at any point (the
// search does so on restarts, database reductions and estimator demotions)
// costs one cold solve and nothing else.
//
// The zero value is ready to use. Not safe for concurrent use, matching the
// single-threaded search loop; the counters are read with atomics only so
// harness goroutines may sample them mid-run.
type LPRState struct {
	// bufs is nil until the first estimation and again after Release.
	bufs *lprBuffers

	// Counters (sampled by Stats): warm solves, cold solves (first node,
	// invalidations, and fallbacks), and the subset of cold solves where a
	// warm attempt was abandoned mid-flight.
	warmSolves    atomic.Int64
	coldSolves    atomic.Int64
	warmFallbacks atomic.Int64
}

// lprBuffers are the buffers an LPRState lends out: the simplex workspace
// and the estimation scratch.
type lprBuffers struct {
	ws      lp.Workspace
	scratch lprScratch
}

// lprPool holds the buffers of finished solves for the next ones. The pool
// may drop them at any garbage collection, so idle tableaux cost no memory
// for long.
var lprPool = sync.Pool{New: func() any { return new(lprBuffers) }}

// lprScratch holds the buffers one LPR estimation builds its x-space
// problem, cut record, separator rows and dual LP into.
type lprScratch struct {
	xp               xProblem
	inst             cutInstall
	srcs             []cuts.Source
	prob             lp.Problem
	ents             []lp.Entry
	cnt              []int
	varKeys, rowKeys []int64
}

// buffers returns the state's buffers, taking them from the pool on first
// use.
func (st *LPRState) buffers() *lprBuffers {
	if st.bufs == nil {
		st.bufs = lprPool.Get().(*lprBuffers)
	}
	return st.bufs
}

// Invalidate drops the stored basis: the next LPR call solves cold. Called
// by the search when the node-to-node continuity the basis assumes is broken
// (restart, ReduceDB, estimator demotion) or after a hard LPR failure. The
// buffers are kept.
func (st *LPRState) Invalidate() {
	if st != nil && st.bufs != nil {
		st.bufs.ws.Invalidate()
	}
}

// Release invalidates the basis and gives the buffers back to the pool for
// the next solve; the counters stay. A later estimation through st takes
// buffers from the pool again. Buffers an estimation that panicked left
// behind are pooled too: an estimation rebuilds its scratch and an LP solve
// resets its Workspace (see lp.Workspace) before reading either, as when
// the state itself solves again after the panic. Nil-safe.
func (st *LPRState) Release() {
	if st == nil || st.bufs == nil {
		return
	}
	b := st.bufs
	st.bufs = nil
	b.ws.Invalidate()
	b.scratch.inst.drop()
	clear(b.scratch.srcs) // they view the solve's engine store
	lprPool.Put(b)
}

// WarmSolves returns the number of LP solves that reused a previous basis.
func (st *LPRState) WarmSolves() int64 { return st.warmSolves.Load() }

// ColdSolves returns the number of from-scratch LP solves.
func (st *LPRState) ColdSolves() int64 { return st.coldSolves.Load() }

// WarmFallbacks returns the number of cold solves that began as warm
// attempts (poor mapping, corrupted pivots, numerical trouble).
func (st *LPRState) WarmFallbacks() int64 { return st.warmFallbacks.Load() }
