package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"abftchol/internal/core"
	"abftchol/internal/experiments"
	"abftchol/internal/obs"
	"abftchol/internal/server"
)

// serveSweep sends the paper sweep (`abftchol -exp all`) to an
// in-process daemon (nproc workers, loopback listener, no disk cache)
// through experiments.NewRemoteScheduler with nproc workers: a closed
// loop of nproc clients. An op is one job round trip; each step is one
// pass over the sweep. Each daemon serves serveCycle passes: the first
// finds it cold, the later ones are served from its in-memory dedup.
type serveSweep struct {
	workers int
	cfg     experiments.Config

	ref    string // local serial render, made during set-up
	srv    *server.Server
	served chan error
	hc     *http.Client
	cl     *server.Client
	jobs   atomic.Int64 // numbers traced job round trips
}

func newServeSweep(c config) *serveSweep {
	w := &serveSweep{workers: runtime.NumCPU()}
	if c.Tiny {
		w.cfg = experiments.Config{Sizes: []int{5120}, CapabilityN: 5120}
	}
	return w
}

func (w *serveSweep) sizes() map[string]any {
	sizes := "paper defaults"
	if len(w.cfg.Sizes) > 0 {
		sizes = fmt.Sprint(w.cfg.Sizes)
	}
	return map[string]any{"experiments": "all", "sizes": sizes, "daemon_workers": w.workers, "clients": w.workers, "loop": "closed"}
}

// render is `abftchol -exp all`'s text output assembled on sched.
func render(sched *experiments.Scheduler, cfg experiments.Config) string {
	reg := experiments.Registry()
	var b strings.Builder
	for _, id := range experiments.IDs() {
		ent := reg[id]
		fmt.Fprintln(&b, sched.Run(ent.Run, ent.Profile, cfg))
	}
	return b.String()
}

func (w *serveSweep) setup() error {
	w.ref = render(experiments.NewScheduler(1, nil), w.cfg)
	return w.start()
}

// start boots a fresh daemon on a loopback port.
func (w *serveSweep) start() error {
	srv, err := server.New(server.Config{
		Workers: w.workers,
		Clock:   server.Clock{Now: time.Now, After: time.After},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	w.srv, w.served = srv, make(chan error, 1)
	go func() { w.served <- srv.Serve(ln) }()
	w.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4 * w.workers}}
	w.cl = &server.Client{Base: "http://" + ln.Addr().String(), HTTP: w.hc, Name: "perfbench"}
	return nil
}

// serveCycle is the number of passes one daemon serves: one cold pass
// and then hot ones. Restarting the daemon every cycle keeps the
// cold:hot mix of ops the same however many passes a run fits; an odd
// cycle puts every other cold pass on the traced side of a traced run.
const serveCycle = 9

// prepare swaps in a fresh daemon at the start of every cycle.
func (w *serveSweep) prepare(i int) error {
	if i == 0 || i%serveCycle != 0 {
		return nil
	}
	w.close()
	return w.start()
}

func (w *serveSweep) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	<-w.served
	w.hc.CloseIdleConnections()
	w.srv = nil
}

// rejected reports whether err is an HTTP 429 admission refusal.
func rejected(err error) bool {
	var api *server.APIError
	return errors.As(err, &api) && (api.Err.Code == "rate_limited" || api.Err.Code == "queue_full")
}

func (w *serveSweep) step(rec *recorder, i int) (sample, error) {
	var mu sync.Mutex
	var lat []float64
	failed, rejects := 0, 0
	runFn := func(o core.Options) (core.Result, error) {
		t0 := time.Now()
		var res core.Result
		var err error
		if rec == nil {
			res, err = w.cl.RunPoint(o)
		} else {
			res, err = w.tracedRunPoint(rec, o)
		}
		d := time.Since(t0).Seconds()
		mu.Lock()
		defer mu.Unlock()
		lat = append(lat, d)
		if err != nil {
			failed++
			if rejected(err) {
				rejects++
			}
		}
		return res, err
	}
	cfg := w.cfg
	var reg *obs.Registry
	if rec != nil && i == 0 {
		reg = obs.NewRegistry()
		cfg.Obs = &experiments.Obs{Metrics: reg}
	}
	out := render(experiments.NewRemoteScheduler(w.workers, runFn), cfg)
	if out != w.ref {
		failed = len(lat)
	}
	rec.add("server.rejected", float64(rejects))
	if reg != nil {
		rec.add("experiments.points_planned", float64(reg.Counter("sweep.points.planned")))
		rec.add("experiments.points_submitted", float64(len(lat)))
	}
	return sample{Lat: lat, Ops: len(lat), Failed: failed}, nil
}

// tracedRunPoint is server.Client.RunPoint with a span around each of
// its exchanges; the daemon's own timestamps give queue wait and
// execution time.
func (w *serveSweep) tracedRunPoint(rec *recorder, o core.Options) (core.Result, error) {
	op := int(w.jobs.Add(1))
	root := rec.begin("server.job", 0, op)
	defer rec.end(root)
	req, err := server.RequestFromOptions(o)
	if err != nil {
		return core.Result{}, err
	}
	sp := rec.begin("server.submit", root, op)
	info, err := w.cl.Submit(req)
	rec.end(sp)
	if err != nil {
		return core.Result{}, fmt.Errorf("submit: %w", err)
	}
	rec.add("server.submitted_jobs", 1)
	sp = rec.begin("server.wait", root, op)
	info, err = w.cl.Wait(info.ID)
	rec.end(sp)
	if err != nil {
		return core.Result{}, fmt.Errorf("wait %s: %w", info.ID, err)
	}
	if info.StartedAt != nil && info.FinishedAt != nil {
		rec.add("server.queue_wait_s", info.StartedAt.Sub(info.SubmittedAt).Seconds())
		rec.add("server.exec_s", info.FinishedAt.Sub(*info.StartedAt).Seconds())
	}
	if info.State != server.StateDone {
		if cause := core.ErrorFromCode(info.ErrorCode, info.Error); cause != nil {
			return core.Result{}, cause
		}
		return core.Result{}, fmt.Errorf("job %s ended %s", info.ID, info.State)
	}
	sp = rec.begin("server.result", root, op)
	res, err := w.cl.Result(info.ID)
	rec.end(sp)
	if err != nil {
		return core.Result{}, fmt.Errorf("result %s: %w", info.ID, err)
	}
	r := res.Result.Result()
	if info.Executed != nil && *info.Executed {
		rec.add("server.executed_jobs", 1)
		rec.add("executed_kernels", float64(r.GPUStats.TotalKernels()+r.CPUStats.TotalKernels()))
		if info.StartedAt != nil && info.FinishedAt != nil {
			rec.add("executed_s", info.FinishedAt.Sub(*info.StartedAt).Seconds())
		}
	}
	rec.add("kernels", float64(r.GPUStats.TotalKernels()+r.CPUStats.TotalKernels()))
	return r, nil
}

func (w *serveSweep) layers(rec *recorder, ops int) map[string]float64 {
	total, _ := layerTotals(rec.closed())
	out := perOp(total, ops, map[string]string{
		"server.submit_s": "server.submit",
		"server.wait_s":   "server.wait",
		"server.result_s": "server.result",
	})
	c := rec.counts
	for _, k := range []string{"experiments.points_planned", "experiments.points_submitted", "server.executed_jobs", "server.submitted_jobs", "server.rejected"} {
		out[k] = c[k]
	}
	if ops > 0 {
		out["server.queue_wait_s"] = c["server.queue_wait_s"] / float64(ops)
		out["server.exec_s"] = c["server.exec_s"] / float64(ops)
		out["hetsim.kernels"] = c["kernels"] / float64(ops)
	}
	if c["server.submitted_jobs"] > 0 {
		out["server.executed_ratio"] = c["server.executed_jobs"] / c["server.submitted_jobs"]
	}
	if c["executed_s"] > 0 {
		out["hetsim.kernels_per_s"] = c["executed_kernels"] / c["executed_s"]
	}
	return out
}
