package cuts

// This file is the per-node separation fast path: every LPR estimation that
// does NOT separate pays exactly one Probe (and typically one Len) call.
// Both must stay inlinable and allocation-free — `make escape-check` greps
// the compiler's -m output for this file.

// Probe reports whether this estimation should run a separation round:
// always at the root (depth 0, where LPR separates to a fixpoint), and at
// every every-th deep estimation otherwise. Nil-safe.
func (p *Pool) Probe(depth int) bool {
	if p == nil {
		return false
	}
	if depth == 0 {
		return true
	}
	p.est++
	return p.est%every == 0
}

// Len returns the number of live cuts. Nil-safe.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	return len(p.live)
}
