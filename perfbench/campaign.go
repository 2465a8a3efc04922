package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/reliability"
	"abftchol/internal/reliability/campaign"
)

// campaignLoad runs campaign.Run over the default grid (laptop;
// magma/online/enhanced; the five default classes) on a local
// Scheduler with nproc workers and no journal. An op is one trial;
// each step is one campaign.Run call with a seed of its own, and its
// trials' latency is the call's wall time divided by its trial count.
type campaignLoad struct {
	n, trials int
	seed      int64
	workers   int
}

func newCampaignLoad(c config) *campaignLoad {
	w := &campaignLoad{n: 1024, trials: 20, seed: c.Seed, workers: runtime.NumCPU()}
	if c.Tiny {
		w.n, w.trials = 128, 2
	}
	return w
}

func (w *campaignLoad) sizes() map[string]any {
	return map[string]any{"n": w.n, "trials_per_cell": w.trials, "cells": 15, "machines": "laptop", "schemes": campaign.DefaultSchemes(), "classes": campaign.DefaultClasses(), "workers": w.workers}
}

func (w *campaignLoad) config(i int) campaign.Config {
	return campaign.Config{N: w.n, TrialsPerCell: w.trials, Seed: splitmix(w.seed, i)}
}

func (w *campaignLoad) setup() error {
	s, err := w.step(nil, -1) // warm-up
	if err == nil && s.Failed > 0 {
		err = fmt.Errorf("warm-up campaign failed its output check")
	}
	return err
}

func (w *campaignLoad) step(rec *recorder, i int) (sample, error) {
	cfg := w.config(i)
	t0 := time.Now()
	var rep *campaign.Report
	var err error
	if rec == nil {
		rep, err = campaign.Run(context.Background(), cfg, experiments.NewScheduler(w.workers, nil), campaign.RunOptions{})
	} else {
		rep, err = w.tracedRun(rec, i+1, cfg, i == 0)
	}
	wall := time.Since(t0).Seconds()
	if err != nil {
		return sample{}, err
	}
	s := sample{Lat: []float64{wall / float64(rep.TotalTrials)}, Ops: rep.TotalTrials, Failed: checkReport(rep, w.trials)}
	if rec != nil && i == 0 {
		// The traced loop must reproduce campaign.Run byte for byte.
		want, err := campaign.Run(context.Background(), cfg, experiments.NewScheduler(w.workers, nil), campaign.RunOptions{})
		if err != nil {
			return s, err
		}
		a, err := rep.Marshal()
		if err != nil {
			return s, err
		}
		b, err := want.Marshal()
		if err != nil {
			return s, err
		}
		if !bytes.Equal(a, b) {
			return s, fmt.Errorf("traced shard loop report differs from campaign.Run's")
		}
	}
	return s, nil
}

// checkReport returns the number of trials in cells that fail a check:
// tallies that do not sum to the cell's trials, a silent corruption
// under enhanced on a single-fault class, or any detection by magma.
func checkReport(rep *campaign.Report, trials int) int {
	failed := 0
	for _, c := range rep.Cells {
		ok := c.Trials == trials && c.Counts.Total() == trials
		if c.Scheme == core.SchemeKey(core.SchemeEnhanced) && c.Class != "storage-offset-burst" && c.Counts.Silent > 0 {
			ok = false
		}
		if c.Scheme == core.SchemeKey(core.SchemeNone) && c.Counts.Corrected+c.Counts.Uncorrectable > 0 {
			ok = false
		}
		if !ok {
			failed += trials
		}
	}
	return failed
}

// tracedRun is campaign.Run's shard loop (no journal, no
// cancellation) with a span around every public call.
func (w *campaignLoad) tracedRun(rec *recorder, op int, cfg campaign.Config, count bool) (*campaign.Report, error) {
	root := rec.begin("op", 0, op)
	defer rec.end(root)
	sched := experiments.NewScheduler(w.workers, nil)

	sp := rec.begin("campaign.plan", root, op)
	plan, err := campaign.NewPlan(cfg)
	var fp string
	if err == nil {
		fp, err = plan.Config.Fingerprint()
	}
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	perCell := map[int]campaign.Counts{}
	for _, sh := range plan.Shards {
		sp := rec.begin("campaign.plan", root, op)
		points := make([]core.Options, 0, sh.Hi-sh.Lo)
		for trial := sh.Lo; trial < sh.Hi; trial++ {
			points = append(points, plan.TrialOptions(sh.Cell, trial))
		}
		rec.end(sp)

		sp = rec.begin("campaign.execute", root, op)
		results := sched.Execute(points, nil)
		rec.end(sp)

		sp = rec.begin("campaign.classify", root, op)
		var counts campaign.Counts
		for _, pr := range results {
			out, err := reliability.Classify(pr.Result, pr.Err)
			if err == nil {
				err = counts.Add(out)
			}
			if err != nil {
				rec.end(sp)
				return nil, err
			}
		}
		rec.end(sp)
		c := perCell[sh.Cell]
		c.Merge(counts)
		perCell[sh.Cell] = c

		for i, pr := range results {
			kernels := pr.Result.GPUStats.TotalKernels() + pr.Result.CPUStats.TotalKernels()
			rec.add("kernels", float64(kernels))
			if count {
				rec.add("fault.scenarios", float64(len(points[i].Scenarios)))
				rec.add("fault.propagation_events", float64(pr.Result.PropagationEvents))
				rec.add("hetsim.kernels", float64(kernels))
			}
		}
		if count {
			rec.add("reliability.clean", float64(counts.Clean))
			rec.add("reliability.corrected", float64(counts.Corrected))
			rec.add("reliability.uncorrectable", float64(counts.Uncorrectable))
			rec.add("reliability.silent", float64(counts.Silent))
		}
	}
	return campaign.BuildReport(plan, fp, perCell), nil
}

func (w *campaignLoad) layers(rec *recorder, ops int) map[string]float64 {
	total, _ := layerTotals(rec.closed())
	out := perOp(total, ops, map[string]string{
		"campaign.plan_s":     "campaign.plan",
		"campaign.execute_s":  "campaign.execute",
		"campaign.classify_s": "campaign.classify",
	})
	for k, v := range rec.counts {
		if k != "kernels" {
			out[k] = v
		}
	}
	if t := total["campaign.execute"].Seconds(); t > 0 {
		out["hetsim.kernels_per_s"] = rec.counts["kernels"] / t
	}
	return out
}

func (w *campaignLoad) prepare(int) error { return nil }

func (w *campaignLoad) close() {}
