// Package obs is the observability layer of the reproduction: a structured,
// ring-buffered search-event tracer, the solver stack's counter blocks
// (solver, bounds, per-estimator, cuts, sharing and board), which are at the
// same time the versioned metrics schema, and a live introspection registry
// that serves that document — plus net/http/pprof — over an opt-in loopback
// HTTP endpoint while a solve is still running.
//
// Design constraints (DESIGN.md §11):
//
//   - Zero cost when disabled. Every producer-side handle (*Tracer, *Live)
//     is nil-safe: a disabled run carries nil pointers and the hot path pays
//     exactly one nil check — no allocation, no atomic, no lock.
//   - Lock-cheap when enabled. The tracer appends fixed-size Event values
//     into a preallocated ring under a short mutex; no per-event allocation.
//     Live metrics are published as immutable snapshot values behind an
//     atomic pointer, so concurrent scrapers can never observe a torn or
//     half-updated counter block.
//   - One-way imports. obs depends only on the standard library; the solver
//     packages (core, bounds, cuts, share, ls, portfolio) import obs and
//     count straight into the blocks defined here, so each counter is
//     declared once and no converter sits between solver and document.
package obs
