package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"abftchol/internal/blas"
	"abftchol/internal/checksum"
	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// factorCheckBound is the largest relative error
// ‖A·x − L·(Lᵀ·x)‖₂ / (‖A‖F·‖x‖₂) a factor-real op may return.
// Healthy factors read about 1e-17; one uncorrected injected error
// reads above 1e-3.
const factorCheckBound = 1e-12

// factorReal is one enhanced core.Run on the laptop profile over a
// fixed O(n²) SPD input built during set-up. Each op injects one
// storage and one computation error at seed-chosen positions.
type factorReal struct {
	n, b, nb int
	seed     int64
	delta    float64
	prof     hetsim.Profile

	a      *mat.Matrix
	x, ax  []float64 // check vector and A·x
	normAF float64
}

func newFactorReal(c config) (*factorReal, error) {
	prof, err := hetsim.ProfileByName("laptop")
	if err != nil {
		return nil, err
	}
	w := &factorReal{n: 1536, b: prof.BlockSize, seed: c.Seed, delta: 1e5, prof: prof}
	if c.Tiny {
		w.n = 320
	}
	w.nb = w.n / w.b
	return w, nil
}

func (w *factorReal) sizes() map[string]any {
	return map[string]any{"n": w.n, "block": w.b, "blocks": w.nb, "machine": "laptop", "scheme": "enhanced", "inject": "storage+computation at seeded positions", "delta": w.delta}
}

func (w *factorReal) setup() error {
	// A diagonally dominant symmetric matrix: entries uniform in
	// [-1, 1], diagonal 2n. Built here rather than by mat so this
	// workload spends nothing in mat's O(n³) helpers.
	rng := rand.New(rand.NewSource(w.seed))
	w.a = mat.New(w.n, w.n)
	for j := 0; j < w.n; j++ {
		cj := w.a.Col(j)
		cj[j] = 2 * float64(w.n)
		for i := j + 1; i < w.n; i++ {
			v := rng.Float64()*2 - 1
			cj[i] = v
			w.a.Col(i)[j] = v
		}
	}
	w.x = make([]float64, w.n)
	for i := range w.x {
		w.x[i] = rng.Float64()*2 - 1
	}
	w.ax = make([]float64, w.n)
	sq := 0.0
	for j := 0; j < w.n; j++ {
		cj, xj := w.a.Col(j), w.x[j]
		for i, v := range cj {
			w.ax[i] += v * xj
			sq += v * v
		}
	}
	w.normAF = math.Sqrt(sq)

	s, err := w.step(nil, -1) // warm-up
	if err == nil && s.Failed > 0 {
		err = fmt.Errorf("warm-up op failed its output check")
	}
	return err
}

// injection is one seeded fault of an op.
type injection struct {
	kind     fault.Kind
	iter     int
	row, col int
}

// injections draws the op's storage error (a factored panel block
// about to be read, iterations 1..nb-1) and computation error (a GEMM
// output block, iterations 1..nb-2).
func (w *factorReal) injections(i int) [2]injection {
	rng := rand.New(rand.NewSource(splitmix(w.seed, i)))
	return [2]injection{
		{fault.Storage, 1 + rng.Intn(w.nb-1), rng.Intn(w.b), rng.Intn(w.b)},
		{fault.Computation, 1 + rng.Intn(w.nb-2), rng.Intn(w.b), rng.Intn(w.b)},
	}
}

func (w *factorReal) options(scheme core.Scheme, inj [2]injection) core.Options {
	o := core.Options{
		Profile:          w.prof,
		N:                w.n,
		Scheme:           scheme,
		K:                1,
		ChecksumVectors:  2,
		ConcurrentRecalc: true,
		Placement:        core.PlaceAuto,
		Data:             w.a,
	}
	if scheme == core.SchemeEnhanced {
		for _, in := range inj {
			sc := fault.Scenario{Kind: in.kind, Iter: in.iter, Op: fault.OpGEMM, BI: -1, BJ: -1, Row: in.row, Col: in.col, Delta: w.delta}
			o.Scenarios = append(o.Scenarios, sc)
		}
	}
	return o
}

func (w *factorReal) step(rec *recorder, i int) (sample, error) {
	op := i + 1
	inj := w.injections(i)
	o := w.options(core.SchemeEnhanced, inj)
	t0 := time.Now()
	sp := rec.begin("core.run", 0, op)
	res, err := core.Run(o)
	rec.end(sp)
	s := sample{Lat: []float64{time.Since(t0).Seconds()}, Ops: 1}
	if err != nil || res.Attempts != 1 || res.Corrections != len(res.Injections) || len(res.Injections) != 2 ||
		!(w.check(res.L) < factorCheckBound) {
		s.Failed = 1
	}
	if rec == nil || s.Failed > 0 {
		return s, nil
	}

	// Replay the same call sequence with a span per public call, then
	// factor the same input under plain MAGMA.
	got, err := w.replay(rec, op, inj)
	if err != nil {
		return s, err
	}
	if err := crossCheck(got, res); err != nil {
		return s, fmt.Errorf("replay drifted from core.Run: %w", err)
	}
	sp = rec.begin("core.run_magma", 0, op)
	_, err = core.Run(w.options(core.SchemeNone, inj))
	rec.end(sp)
	if err != nil {
		return s, fmt.Errorf("magma run: %w", err)
	}
	if i == 0 {
		rec.add("core.verified_blocks", float64(res.VerifiedBlocks))
		rec.add("core.corrections", float64(res.Corrections))
		rec.add("fault.scenarios", float64(len(o.Scenarios)))
		rec.add("fault.propagation_events", float64(res.PropagationEvents))
		rec.add("hetsim.kernels", float64(res.GPUStats.TotalKernels()+res.CPUStats.TotalKernels()))
		for class, n := range got.calls {
			rec.add(class+"_calls", float64(n))
		}
		rec.add("checksum.verify_calls", float64(got.verified))
	}
	return s, nil
}

// check returns ‖A·x − L·(Lᵀ·x)‖₂ / (‖A‖F·‖x‖₂) in O(n²).
func (w *factorReal) check(l *mat.Matrix) float64 {
	if l == nil {
		return math.Inf(1)
	}
	y := make([]float64, w.n) // Lᵀ·x
	for j := 0; j < w.n; j++ {
		s := 0.0
		for i, v := range l.Col(j)[j:] {
			s += v * w.x[j+i]
		}
		y[j] = s
	}
	z := append([]float64(nil), w.ax...) // A·x − L·y
	for j := 0; j < w.n; j++ {
		yj := y[j]
		for i, v := range l.Col(j)[j:] {
			z[j+i] -= v * yj
		}
	}
	num, xx := 0.0, 0.0
	for i := range z {
		num += z[i] * z[i]
		xx += w.x[i] * w.x[i]
	}
	return math.Sqrt(num) / (w.normAF * math.Sqrt(xx))
}

// replayCounts is what the replay did, in the program's own terms.
type replayCounts struct {
	calls       map[string]int // blas.gemm, ..., checksum.update
	classes     [hetsim.ClassHost + 1]int
	verified    int
	corrections int
}

// replay re-issues core's left-looking enhanced call sequence (K=1,
// two checksum vectors; internal/core/driver.go runOnce and steps.go)
// on a copy of the input, with a span around every public blas and
// checksum call, and injects the op's two errors where core's injector
// fires them.
func (w *factorReal) replay(rec *recorder, op int, inj [2]injection) (replayCounts, error) {
	const m = 2
	b, nb := w.b, w.nb
	cnt := replayCounts{calls: map[string]int{}}
	root := rec.begin("replay", 0, op)
	defer rec.end(root)

	sp := rec.begin("replay.copy", root, op)
	a := w.a.Clone()
	scratch := mat.New(m, b)
	rec.end(sp)
	block := func(bi, bj int) *mat.Matrix { return a.View(bi*b, bj*b, b, b) }

	call := func(name string, class hetsim.Class, fn func()) {
		sp := rec.begin(name, root, op)
		fn()
		rec.end(sp)
		cnt.calls[name]++
		cnt.classes[class]++
	}
	var chk *mat.Matrix
	call("checksum.encode", hetsim.ClassChkRecalc, func() { chk = checksum.EncodeMatrixMulti(a, b, m) })
	chkView := func(bi, bj int) *mat.Matrix { return chk.View(m*bi, bj*b, m, b) }

	var verr error
	verify := func(blocks [][2]int) {
		for _, bl := range blocks {
			sp := rec.begin("checksum.verify", root, op)
			corrs, err := checksum.VerifyAndCorrect(block(bl[0], bl[1]), chkView(bl[0], bl[1]), scratch)
			rec.end(sp)
			cnt.verified++
			cnt.classes[hetsim.ClassChkRecalc]++
			cnt.corrections += len(corrs)
			if err != nil && verr == nil {
				verr = fmt.Errorf("block (%d,%d): %w", bl[0], bl[1], err)
			}
		}
	}
	corrupt := func(bi, bj int, in injection) { block(bi, bj).Add(in.row, in.col, w.delta) }

	for j := 0; j < nb; j++ {
		if in := inj[0]; in.iter == j {
			corrupt(j, j-1, in)
		}
		mm := nb - j - 1
		k := j * b
		diag := block(j, j)

		rowPanel := make([][2]int, 0, j+1)
		for c := 0; c < j; c++ {
			rowPanel = append(rowPanel, [2]int{j, c})
		}
		verify(append(rowPanel, [2]int{j, j}))
		if k > 0 {
			call("blas.syrk", hetsim.ClassSYRK, func() {
				blas.DgemmParallel(blas.NoTrans, blas.Trans, b, b, k,
					-1, a.Off(j*b, 0), a.Stride, a.Off(j*b, 0), a.Stride,
					1, diag.Data, diag.Stride)
			})
			call("checksum.update", hetsim.ClassChkUpdate, func() {
				checksum.UpdateRankK(chkView(j, j), chk.View(m*j, 0, m, k), a.View(j*b, 0, b, k))
			})
		}
		verify([][2]int{{j, j}})

		if mm > 0 && j > 0 {
			var trailing [][2]int
			for i := j + 1; i < nb; i++ {
				for c := 0; c < j; c++ {
					trailing = append(trailing, [2]int{i, c})
				}
				trailing = append(trailing, [2]int{i, j})
			}
			verify(trailing)
			r0 := (j + 1) * b
			call("blas.gemm", hetsim.ClassGEMM, func() {
				blas.DgemmParallel(blas.NoTrans, blas.Trans, mm*b, b, k,
					-1, a.Off(r0, 0), a.Stride, a.Off(j*b, 0), a.Stride,
					1, a.Off(r0, j*b), a.Stride)
			})
			if in := inj[1]; in.iter == j {
				corrupt(j+1, j, in)
			}
			call("checksum.update", hetsim.ClassChkUpdate, func() {
				checksum.UpdateRankK(chk.View(m*(j+1), j*b, m*mm, b), chk.View(m*(j+1), 0, m*mm, k), a.View(j*b, 0, b, k))
			})
		}

		var perr error
		call("blas.potf2", hetsim.ClassPOTF2, func() {
			if perr = blas.Dpotf2(b, diag.Data, diag.Stride); perr == nil {
				diag.LowerFromFull()
			}
		})
		if perr != nil {
			return cnt, fmt.Errorf("replay potf2[%d]: %w", j, perr)
		}
		call("checksum.update", hetsim.ClassChkUpdate, func() { checksum.UpdatePOTF2(chkView(j, j), diag) })

		if mm > 0 {
			blocks := [][2]int{{j, j}}
			for i := j + 1; i < nb; i++ {
				blocks = append(blocks, [2]int{i, j})
			}
			verify(blocks)
			r0 := (j + 1) * b
			call("blas.trsm", hetsim.ClassTRSM, func() {
				blas.DtrsmParallel(blas.Right, blas.Trans, mm*b, b, 1, diag.Data, diag.Stride, a.Off(r0, j*b), a.Stride)
			})
			call("checksum.update", hetsim.ClassChkUpdate, func() {
				checksum.UpdateTRSM(chk.View(m*(j+1), j*b, m*mm, b), diag)
			})
		}
		if verr != nil {
			return cnt, fmt.Errorf("replay verification: %w", verr)
		}
	}
	return cnt, nil
}

// crossCheck compares the replay's counts with the program's own:
// kernel launches per class (GPU and CPU together), verified blocks
// and corrections.
func crossCheck(got replayCounts, res core.Result) error {
	for _, c := range []hetsim.Class{hetsim.ClassGEMM, hetsim.ClassSYRK, hetsim.ClassTRSM, hetsim.ClassPOTF2, hetsim.ClassChkRecalc, hetsim.ClassChkUpdate} {
		want := res.GPUStats.CountOf(c) + res.CPUStats.CountOf(c)
		if got.classes[c] != want {
			return fmt.Errorf("%s launches: replay %d, core.Run %d", c, got.classes[c], want)
		}
	}
	if got.verified != res.VerifiedBlocks {
		return fmt.Errorf("verified blocks: replay %d, core.Run %d", got.verified, res.VerifiedBlocks)
	}
	if got.corrections != res.Corrections {
		return fmt.Errorf("corrections: replay %d, core.Run %d", got.corrections, res.Corrections)
	}
	return nil
}

func (w *factorReal) layers(rec *recorder, ops int) map[string]float64 {
	total, _ := layerTotals(rec.closed())
	out := perOp(total, ops, map[string]string{
		"core.run_s":        "core.run",
		"core.run_magma_s":  "core.run_magma",
		"blas.gemm_s":       "blas.gemm",
		"blas.syrk_s":       "blas.syrk",
		"blas.trsm_s":       "blas.trsm",
		"blas.potf2_s":      "blas.potf2",
		"checksum.encode_s": "checksum.encode",
		"checksum.update_s": "checksum.update",
		"checksum.verify_s": "checksum.verify",
	})
	for k, v := range rec.counts {
		out[k] = v
	}
	kernels := 0.0
	for _, name := range []string{"blas.gemm_s", "blas.syrk_s", "blas.trsm_s", "blas.potf2_s", "checksum.encode_s", "checksum.update_s", "checksum.verify_s"} {
		kernels += out[name]
	}
	out["core.other_s"] = out["core.run_s"] - kernels
	if out["core.run_magma_s"] > 0 {
		out["core.abft_overhead_pct"] = 100 * (out["core.run_s"]/out["core.run_magma_s"] - 1)
	}
	if out["core.run_s"] > 0 {
		out["hetsim.kernels_per_s"] = out["hetsim.kernels"] / out["core.run_s"]
	}
	// GFLOP/s per class from the flops each call actually executes
	// (core issues SYRK as a full b×b GEMM).
	b, nb := float64(w.b), w.nb
	var gemm, syrk, trsm float64
	for j := 1; j < nb; j++ {
		k, rows := float64(j)*b, float64(nb-j-1)*b
		syrk += 2 * b * b * k
		gemm += 2 * rows * b * k
	}
	for j := 0; j < nb-1; j++ {
		trsm += float64(nb-j-1) * b * b * b
	}
	for name, flops := range map[string]float64{"gemm": gemm, "syrk": syrk, "trsm": trsm} {
		if t := out["blas."+name+"_s"]; t > 0 {
			out["blas."+name+"_gflops"] = flops / t / 1e9
		}
	}
	return out
}

func (w *factorReal) prepare(int) error { return nil }

func (w *factorReal) close() {}
