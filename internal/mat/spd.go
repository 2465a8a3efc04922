package mat

import "math/rand"

// RandSPD returns a random symmetric positive-definite n x n matrix
// built as M = G*Gᵀ + n*I from a seeded generator, so every call with
// the same seed produces the same matrix. The n*I shift keeps the
// condition number moderate, which keeps Cholesky numerically tame and
// makes checksum thresholds easy to reason about.
func RandSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, n)
	for j := 0; j < n; j++ {
		col := g.Col(j)
		for i := range col {
			col[i] = rng.Float64()*2 - 1
		}
	}
	m := New(n, n)
	// m = g * gᵀ: each lower-triangle column is accumulated in place
	// (New zeroed it), then mirrored into the upper triangle.
	for j := 0; j < n; j++ {
		col := m.Col(j)
		lowerGramCol(col[j:], g.Data, g.Stride, j, n)
		for i := j + 1; i < n; i++ {
			m.Set(j, i, col[i])
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

// lowerGramCol adds rows j.. of column j of X·Xᵀ, restricted to X's
// first kend columns, into acc: acc[i-j] += Σ_{k<kend} X(i,k)·X(j,k)
// for i = j .. j+len(acc)-1. X is column-major with leading dimension
// ld in x, and only X's rows j.. are read. acc must be non-empty.
//
// Each acc element keeps a single accumulator summed in k-ascending
// order, one `+= x*y` per term, so the result is bit-identical to the
// plain triple loop — including where the compiler fuses a multiply-add.
// Unrolling k by four saves three of every four passes over acc and
// leaves that order as it is.
//
// abft:hotpath
// abft:noescape
// abft:bce checks=12
func lowerGramCol(acc, x []float64, ld, j, kend int) {
	k := 0
	for ; k+3 < kend; k += 4 {
		c0 := x[j+k*ld:][:len(acc)]
		c1 := x[j+(k+1)*ld:][:len(acc)]
		c2 := x[j+(k+2)*ld:][:len(acc)]
		c3 := x[j+(k+3)*ld:][:len(acc)]
		g0, g1, g2, g3 := c0[0], c1[0], c2[0], c3[0]
		for i := range acc {
			v := acc[i]
			v += c0[i] * g0
			v += c1[i] * g1
			v += c2[i] * g2
			v += c3[i] * g3
			acc[i] = v
		}
	}
	for ; k < kend; k++ {
		c := x[j+k*ld:][:len(acc)]
		g := c[0]
		for i := range acc {
			acc[i] += c[i] * g
		}
	}
}

// RandGeneral returns a random n x m matrix with entries in [-1, 1].
func RandGeneral(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for j := 0; j < cols; j++ {
		col := m.Col(j)
		for i := range col {
			col[i] = rng.Float64()*2 - 1
		}
	}
	return m
}

// RandVector returns a random length-n vector with entries in [-1, 1].
func RandVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}
