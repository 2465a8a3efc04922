package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// rssSampler polls the process's resident set size so each step can
// report its own peak. The median of those per-step peaks is steadier
// than the whole-run high-water mark, which one stray step or GC cycle
// decides.
type rssSampler struct {
	peak atomic.Int64 // bytes since the last reset
	done chan struct{}
	wg   sync.WaitGroup
}

// rssInterval is the polling period; reading /proc/self/statm costs a
// few microseconds.
const rssInterval = 2 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	v := residentBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak at the current RSS.
func (s *rssSampler) reset() {
	s.peak.Store(0)
	s.observe()
}

// peakMB is the peak RSS since the last reset, in MiB.
func (s *rssSampler) peakMB() float64 {
	s.observe()
	return float64(s.peak.Load()) / (1 << 20)
}

func (s *rssSampler) stop() {
	close(s.done)
	s.wg.Wait()
}

// residentBytes reads the resident set size from /proc/self/statm
// (Linux); elsewhere it reads 0.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
