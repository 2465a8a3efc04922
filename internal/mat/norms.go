package mat

import "math"

// NormInf returns the infinity norm (max absolute row sum).
func (m *Matrix) NormInf() float64 {
	sums := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for i, v := range col {
			sums[i] += math.Abs(v)
		}
	}
	maxs := 0.0
	for _, s := range sums {
		if s > maxs {
			maxs = s
		}
	}
	return maxs
}

// NormFro returns the Frobenius norm.
func (m *Matrix) NormFro() float64 {
	s := 0.0
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for _, v := range col {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// NormMax returns the largest absolute element.
func (m *Matrix) NormMax() float64 {
	maxv := 0.0
	for j := 0; j < m.Cols; j++ {
		col := m.Col(j)
		for _, v := range col {
			av := math.Abs(v)
			if av > maxv {
				maxv = av
			}
		}
	}
	return maxv
}

// CholeskyResidual returns ‖A − L·Lᵀ‖max / (n·‖A‖max), the standard
// scaled residual used to accept or reject a computed factor. L is
// read from the lower triangle (including diagonal) of l; anything in
// the strict upper triangle of l is ignored.
func CholeskyResidual(a, l *Matrix) float64 {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		panic(ErrShape)
	}
	// Symmetric, so the lower triangle suffices: column j of L·Lᵀ from
	// row j down only involves L's columns k <= j.
	maxd := 0.0
	llt := make([]float64, n)
	for j := 0; j < n; j++ {
		s := llt[j:]
		clear(s)
		lowerGramCol(s, l.Data, l.Stride, j, j+1)
		for i, v := range a.Col(j)[j:] {
			d := math.Abs(v - s[i])
			if d > maxd {
				maxd = d
			}
		}
	}
	den := float64(n) * a.NormMax()
	if den == 0 {
		return maxd
	}
	return maxd / den
}
