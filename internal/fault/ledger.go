package fault

import "slices"

// Ledger tracks which blocks currently hold undetected corruption.
// The real-data plane uses it for assertions in tests; the model plane
// uses it as the source of truth for what a checksum verification
// would find.
type Ledger struct {
	pending map[[2]int][]Injection
	// injected keeps every non-propagated mark in order; propagated
	// smears, hundreds per faulty run, are only counted.
	injected     []Injection
	propagations int
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{pending: make(map[[2]int][]Injection)}
}

// Mark records a new corruption of block (bi, bj).
func (l *Ledger) Mark(in Injection) {
	key := [2]int{in.BI, in.BJ}
	l.pending[key] = append(l.pending[key], in)
	if in.Kind == Propagated {
		l.propagations++
	} else {
		l.injected = append(l.injected, in)
	}
}

// Pending returns the unrepaired injections currently in block
// (bi, bj) without clearing them.
func (l *Ledger) Pending(bi, bj int) []Injection {
	return l.pending[[2]int{bi, bj}]
}

// Clear removes the pending corruption of a block (a successful
// verification + correction, or the block being overwritten wholesale)
// and returns what was repaired.
func (l *Ledger) Clear(bi, bj int) []Injection {
	key := [2]int{bi, bj}
	ins := l.pending[key]
	if len(ins) > 0 {
		delete(l.pending, key)
	}
	return ins
}

// SetPending replaces the pending set of block (bi, bj), used by
// verification logic that repairs some injections of a block while
// leaving others (e.g. checksum-consistent corruption it cannot see).
func (l *Ledger) SetPending(bi, bj int, ins []Injection) {
	key := [2]int{bi, bj}
	if len(ins) == 0 {
		delete(l.pending, key)
		return
	}
	l.pending[key] = ins
}

// IsCorrupt reports whether block (bi, bj) has unrepaired corruption.
func (l *Ledger) IsCorrupt(bi, bj int) bool {
	return len(l.pending[[2]int{bi, bj}]) > 0
}

// Propagate records that corrupted block (srcI, srcJ) was read to
// update block (dstI, dstJ): the destination now carries a smear of
// the given row width. The source stays corrupted. consistent marks
// the fatal case where the destination's checksums were updated from
// the same corrupted data, making the smear checksum-invisible. row
// identifies the damaged row when the smear spans exactly one known
// row (-1 otherwise); smears from one source stay in that source's
// row, which is what keeps single-error cascades correctable.
func (l *Ledger) Propagate(srcI, srcJ, dstI, dstJ, iter int, consistent bool, width, row int) {
	l.Mark(Injection{Kind: Propagated, BI: dstI, BJ: dstJ, Row: row, Iter: iter, Consistent: consistent, Width: width})
}

// DetectableProfile summarizes a block's checksum-visible damage by
// row: rows lists the distinct known damaged row indices and unknown
// counts additional damaged rows at unknown positions.
func (l *Ledger) DetectableProfile(bi, bj int) (rows []int, unknown int) {
	for _, in := range l.pending[[2]int{bi, bj}] {
		if !in.Detectable() {
			continue
		}
		if in.Kind != Propagated || (in.EffectiveWidth() == 1 && in.Row >= 0) {
			if !slices.Contains(rows, in.Row) {
				rows = append(rows, in.Row)
			}
			continue
		}
		unknown += in.EffectiveWidth()
	}
	return rows, unknown
}

// PendingWidth returns the widest row span among a block's pending
// corruption (0 when clean), the width its onward propagation carries.
func (l *Ledger) PendingWidth(bi, bj int) int {
	w := 0
	for _, in := range l.pending[[2]int{bi, bj}] {
		if ew := in.EffectiveWidth(); ew > w {
			w = ew
		}
	}
	return w
}

// DetectableWidth is PendingWidth restricted to checksum-visible
// corruption: the part of a block's damage that disagrees with its
// stored checksums. Consistent corruption contributes nothing here —
// when such a block's checksums feed an update, the output's checksums
// track the corrupt result and the propagated damage is invisible too.
func (l *Ledger) DetectableWidth(bi, bj int) int {
	w := 0
	for _, in := range l.pending[[2]int{bi, bj}] {
		if !in.Detectable() {
			continue
		}
		if ew := in.EffectiveWidth(); ew > w {
			w = ew
		}
	}
	return w
}

// ConsistentWidth is the counterpart: the widest checksum-invisible
// pending corruption.
func (l *Ledger) ConsistentWidth(bi, bj int) int {
	w := 0
	for _, in := range l.pending[[2]int{bi, bj}] {
		if in.Detectable() {
			continue
		}
		if ew := in.EffectiveWidth(); ew > w {
			w = ew
		}
	}
	return w
}

// AnyCorrupt reports whether any block is still corrupted.
func (l *Ledger) AnyCorrupt() bool { return len(l.pending) > 0 }

// CorruptBlocks returns the number of blocks with pending corruption.
func (l *Ledger) CorruptBlocks() int { return len(l.pending) }

// Injected returns every non-propagated injection ever marked,
// including repaired ones, in order. The slice is the ledger's own.
func (l *Ledger) Injected() []Injection { return l.injected }

// Propagations returns how many propagated smears have been marked,
// including repaired ones.
func (l *Ledger) Propagations() int { return l.propagations }

// Reset drops all pending corruption but keeps Injected and
// Propagations. Used when a failed factorization restarts from the
// pristine input (the paper's "redo the whole decomposition"
// recovery).
func (l *Ledger) Reset() {
	l.pending = make(map[[2]int][]Injection)
}
