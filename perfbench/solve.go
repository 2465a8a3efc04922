package main

import (
	"fmt"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
	"abftchol/internal/mat"
)

// solveResidualBound is the largest scaled residual
// ‖A − L·Lᵀ‖max / (n·‖A‖max) a solve-real op may return. Healthy runs
// read about 1e-15; one uncorrected injected error reads above 1e-3.
const solveResidualBound = 1e-12

// solveReal is the CLI's `-run -real` path called in-process:
// mat.RandSPD → core.Run (enhanced, laptop, storage@4 and
// computation@7 injected) → mat.CholeskyResidual. Each op draws a
// fresh input from the seed.
type solveReal struct {
	n    int
	seed int64
	opts core.Options
}

func newSolveReal(c config) *solveReal {
	n := 384
	if c.Tiny {
		n = 320
	}
	return &solveReal{n: n, seed: c.Seed}
}

func (w *solveReal) sizes() map[string]any {
	return map[string]any{"n": w.n, "machine": "laptop", "scheme": "enhanced", "inject": "storage@4,computation@7", "delta": 1e5}
}

func (w *solveReal) setup() error {
	prof, err := hetsim.ProfileByName("laptop")
	if err != nil {
		return err
	}
	storage, compute := fault.DefaultStorage(4), fault.DefaultComputation(7)
	storage.Delta, compute.Delta = 1e5, 1e5
	// The CLI's -run defaults: K=1, two checksum vectors, Opt 1 on,
	// automatic update placement.
	w.opts = core.Options{
		Profile:          prof,
		N:                w.n,
		Scheme:           core.SchemeEnhanced,
		K:                1,
		ChecksumVectors:  2,
		ConcurrentRecalc: true,
		Placement:        core.PlaceAuto,
		Scenarios:        []fault.Scenario{storage, compute},
	}
	s, err := w.step(nil, -1) // warm-up
	if err == nil && s.Failed > 0 {
		err = fmt.Errorf("warm-up op failed its output check")
	}
	return err
}

func (w *solveReal) step(rec *recorder, i int) (sample, error) {
	op := i + 1
	t0 := time.Now()
	root := rec.begin("op", 0, op)

	sp := rec.begin("mat.randspd", root, op)
	a := mat.RandSPD(w.n, splitmix(w.seed, i))
	rec.end(sp)

	o := w.opts
	o.Data = a
	sp = rec.begin("core.run", root, op)
	res, err := core.Run(o)
	rec.end(sp)

	resid := 1.0
	if err == nil {
		sp = rec.begin("mat.residual", root, op)
		resid = mat.CholeskyResidual(a, res.L)
		rec.end(sp)
	}
	rec.end(root)
	s := sample{Lat: []float64{time.Since(t0).Seconds()}, Ops: 1}
	if err != nil || res.Corrections != 2 || res.Attempts != 1 || !(resid < solveResidualBound) {
		s.Failed = 1
	}
	if rec != nil && i == 0 {
		rec.add("core.verified_blocks", float64(res.VerifiedBlocks))
		rec.add("core.corrections", float64(res.Corrections))
		rec.add("fault.scenarios", float64(len(o.Scenarios)))
		rec.add("fault.propagation_events", float64(res.PropagationEvents))
		rec.add("hetsim.kernels", float64(res.GPUStats.TotalKernels()+res.CPUStats.TotalKernels()))
	}
	return s, nil
}

func (w *solveReal) layers(rec *recorder, ops int) map[string]float64 {
	total, _ := layerTotals(rec.closed())
	out := perOp(total, ops, map[string]string{
		"mat.randspd_s":  "mat.randspd",
		"mat.residual_s": "mat.residual",
		"core.run_s":     "core.run",
	})
	for k, v := range rec.counts {
		out[k] = v
	}
	if out["core.run_s"] > 0 {
		out["hetsim.kernels_per_s"] = out["hetsim.kernels"] / out["core.run_s"]
	}
	return out
}

func (w *solveReal) prepare(int) error { return nil }

func (w *solveReal) close() {}
