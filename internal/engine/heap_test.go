package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pb"
)

// Property (testing/quick): the variable heap always pops an unpopped
// variable of maximal activity, under arbitrary interleavings of pushes,
// pops, and activity updates.
func TestVarHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		act := make([]float64, n)
		h := newVarHeap(act, nil, nil)
		inHeap := map[pb.Var]bool{}
		for v := 0; v < n; v++ {
			h.push(pb.Var(v))
			inHeap[pb.Var(v)] = true
		}
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // bump a variable and update
				v := pb.Var(rng.Intn(n))
				act[v] += rng.Float64() * 10
				h.update(v)
			case 1: // push (idempotent when present)
				v := pb.Var(rng.Intn(n))
				h.pushIfAbsent(v)
				inHeap[v] = true
			case 2: // pop must return a max-activity member
				if h.size() == 0 {
					continue
				}
				got := h.pop()
				if !inHeap[got] {
					return false
				}
				for v, in := range inHeap {
					if in && act[v] > act[got] {
						return false
					}
				}
				inHeap[got] = false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): cpCons.addScaled preserves the semantics of the
// linear combination on every full assignment: for all x,
// lhs(cp') − degree' == lhs(cp) − degree + λ·(lhs(other) − degree_other)
// is too strong after cancellation (constants shift both sides), but the
// implication "x satisfies both inputs ⇒ x satisfies the combination" must
// hold (cutting-plane addition is sound).
func TestAddScaledSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		mk := func() *cpCons {
			cp := &cpCons{coef: map[pb.Lit]int64{}, degree: int64(rng.Intn(8))}
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					cp.coef[pb.MkLit(pb.Var(v), rng.Intn(2) == 0)] = int64(1 + rng.Intn(4))
				}
			}
			return cp
		}
		a, b := mk(), mk()
		lambda := int64(1 + rng.Intn(3))
		sum := &cpCons{coef: map[pb.Lit]int64{}, degree: a.degree}
		for l, c := range a.coef {
			sum.coef[l] = c
		}
		if !sum.addScaled(b, lambda) {
			return true // overflow path: nothing to check
		}
		eval := func(cp *cpCons, mask int) bool {
			var lhs int64
			for l, c := range cp.coef {
				v := l.Var()
				val := mask&(1<<v) != 0
				if l.Eval(val) {
					lhs += c
				}
			}
			return lhs >= cp.degree
		}
		for mask := 0; mask < 1<<n; mask++ {
			if eval(a, mask) && eval(b, mask) && !eval(sum, mask) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): divideCeil and saturate preserve every model of
// the constraint (both are sound cutting-plane rules).
func TestDivideSaturateSoundnessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		cp := &cpCons{coef: map[pb.Lit]int64{}, degree: int64(1 + rng.Intn(9))}
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				cp.coef[pb.MkLit(pb.Var(v), rng.Intn(2) == 0)] = int64(1 + rng.Intn(6))
			}
		}
		clone := func(c *cpCons) *cpCons {
			out := &cpCons{coef: map[pb.Lit]int64{}, degree: c.degree}
			for l, a := range c.coef {
				out.coef[l] = a
			}
			return out
		}
		div := clone(cp)
		div.divideCeil(int64(1 + rng.Intn(4)))
		sat := clone(cp)
		sat.saturate()
		eval := func(c *cpCons, mask int) bool {
			var lhs int64
			for l, a := range c.coef {
				if l.Eval(mask&(1<<l.Var()) != 0) {
					lhs += a
				}
			}
			return lhs >= c.degree
		}
		for mask := 0; mask < 1<<n; mask++ {
			if eval(cp, mask) && (!eval(div, mask) || !eval(sat, mask)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
