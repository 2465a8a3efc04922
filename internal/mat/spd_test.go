package mat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveRandSPD is the reference RandSPD: the plain triple loop through
// At/Set that the column kernel replaced. The kernel must reproduce
// its output bit for bit.
func naiveRandSPD(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	g := New(n, n)
	for j := 0; j < n; j++ {
		col := g.Col(j)
		for i := range col {
			col[i] = rng.Float64()*2 - 1
		}
	}
	m := New(n, n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += g.At(i, k) * g.At(j, k)
			}
			m.Set(i, j, s)
			m.Set(j, i, s)
		}
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

// naiveCholeskyResidual is the reference CholeskyResidual, likewise
// the plain triple loop the kernel replaced.
func naiveCholeskyResidual(a, l *Matrix) float64 {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		panic(ErrShape)
	}
	maxd := 0.0
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			s := 0.0
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k <= kmax; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			d := math.Abs(a.At(i, j) - s)
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

var (
	exactSizes = []int{0, 1, 2, 3, 4, 5, 7, 17, 64, 130, 384}
	exactSeeds = []int64{0, 1, -1, 42}
)

// sameBits reports the first element where a and b differ in their
// IEEE bit patterns, or "" when they are bit-identical.
func sameBits(a, b *Matrix) string {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Sprintf("shape %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if x, y := a.At(i, j), b.At(i, j); math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Sprintf("(%d,%d) = %x, want %x", i, j, math.Float64bits(x), math.Float64bits(y))
			}
		}
	}
	return ""
}

func TestRandSPDMatchesNaive(t *testing.T) {
	for _, n := range exactSizes {
		for _, seed := range exactSeeds {
			if diff := sameBits(RandSPD(n, seed), naiveRandSPD(n, seed)); diff != "" {
				t.Fatalf("n=%d seed=%d: %s", n, seed, diff)
			}
		}
	}
}

// naiveCholesky returns the lower Cholesky factor of a (right-looking,
// unblocked) with the strict upper triangle left zero.
func naiveCholesky(a *Matrix) *Matrix {
	n := a.Rows
	l := a.Clone()
	for j := 0; j < n; j++ {
		d := math.Sqrt(l.At(j, j))
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			l.Set(i, j, l.At(i, j)/d)
		}
		for k := j + 1; k < n; k++ {
			for i := k; i < n; i++ {
				l.Add(i, k, -l.At(i, j)*l.At(k, j))
			}
		}
	}
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			l.Set(i, j, 0)
		}
	}
	return l
}

// residualCases builds (a, l) pairs for one size and seed: an accurate
// factor, the same factor with garbage in its strict upper triangle,
// and, up to n = 130, factors whose lower triangle holds NaN, ±Inf and
// −0 and a strided view. The special-value cases stop at 130 to keep
// the naive reference affordable under the race detector.
func residualCases(n int, seed int64) map[string][2]*Matrix {
	a := RandSPD(n, seed)
	l := naiveCholesky(a)
	cases := map[string][2]*Matrix{"factor": {a, l}}
	if n == 0 {
		return cases
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	garbage := l.Clone()
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			garbage.Set(i, j, []float64{math.NaN(), math.Inf(1), 1e300, rng.NormFloat64()}[rng.Intn(4)])
		}
	}
	cases["upper-garbage"] = [2]*Matrix{a, garbage}
	if n > 130 {
		return cases
	}
	for _, sv := range []struct {
		name string
		v    float64
	}{{"nan", math.NaN()}, {"+inf", math.Inf(1)}, {"-inf", math.Inf(-1)}, {"-0", math.Copysign(0, -1)}} {
		s := garbage.Clone()
		for r := 0; r < 1+n/8; r++ {
			j := rng.Intn(n)
			s.Set(j+rng.Intn(n-j), j, sv.v)
		}
		cases["lower-"+sv.name] = [2]*Matrix{a, s}
	}
	// A strided view exercises a leading dimension larger than n.
	big := New(n+3, n+2)
	view := big.View(2, 1, n, n)
	view.CopyFrom(garbage)
	cases["view"] = [2]*Matrix{a, view}
	return cases
}

func TestCholeskyResidualMatchesNaive(t *testing.T) {
	for _, n := range exactSizes {
		for _, seed := range exactSeeds {
			for name, c := range residualCases(n, seed) {
				got, want := CholeskyResidual(c[0], c[1]), naiveCholeskyResidual(c[0], c[1])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d seed=%d %s: residual %g (%x), want %g (%x)",
						n, seed, name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

func TestCholeskyResidualShapeMismatch(t *testing.T) {
	for _, c := range [][2]*Matrix{
		{New(3, 4), New(3, 3)},
		{New(3, 3), New(3, 4)},
		{New(3, 3), New(4, 3)},
	} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if !errors.Is(err, ErrShape) {
					t.Fatalf("a %dx%d, l %dx%d: recovered %v, want ErrShape",
						c[0].Rows, c[0].Cols, c[1].Rows, c[1].Cols, err)
				}
			}()
			CholeskyResidual(c[0], c[1])
		}()
	}
}

// maxFuzzN keeps a fuzz input's naive O(n³) reference cheap.
const maxFuzzN = 48

func FuzzRandSPDMatchesNaive(f *testing.F) {
	for _, n := range []uint8{0, 1, 4, 5, 17, 48} {
		f.Add(n, int64(n)-3)
	}
	f.Fuzz(func(t *testing.T, nb uint8, seed int64) {
		n := int(nb) % (maxFuzzN + 1)
		if diff := sameBits(RandSPD(n, seed), naiveRandSPD(n, seed)); diff != "" {
			t.Fatalf("n=%d seed=%d: %s", n, seed, diff)
		}
	})
}

// FuzzCholeskyResidualMatchesNaive lets the fuzzer write raw float64
// bit patterns (NaN payloads, infinities, subnormals, −0) over a
// seeded L, upper triangle included, before both residuals run.
func FuzzCholeskyResidualMatchesNaive(f *testing.F) {
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(-1)))
	f.Add(uint8(3), int64(1), []byte{})
	f.Add(uint8(7), int64(-1), append(append(inf, nan...), 0, 0, 0, 0, 0, 0, 0, 0x80))
	f.Add(uint8(48), int64(42), nan)
	f.Fuzz(func(t *testing.T, nb uint8, seed int64, raw []byte) {
		n := int(nb) % (maxFuzzN + 1)
		a := RandSPD(n, seed)
		l := RandGeneral(n, n, seed+1)
		for i := 0; i+8 <= len(raw) && i/8 < len(l.Data); i += 8 {
			l.Data[i/8] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i:]))
		}
		got, want := CholeskyResidual(a, l), naiveCholeskyResidual(a, l)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d seed=%d: residual %g, want %g", n, seed, got, want)
		}
	})
}

var benchSizes = []int{256, 512, 1024}

func BenchmarkRandSPD(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RandSPD(n, int64(i))
			}
		})
	}
}

func BenchmarkCholeskyResidual(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := RandSPD(n, 1)
			l := RandGeneral(n, n, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CholeskyResidual(a, l)
			}
		})
	}
}
