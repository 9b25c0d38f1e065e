package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"talus/internal/loadgen"
)

// Failure classes. Every key exists and every value is a function of
// its key, so each of these is a failed operation.
var (
	errTransport = errors.New("transport error")
	errStatus    = errors.New("unexpected status")
	errMismatch  = errors.New("value differs from the key's written value")
	errOp        = errors.New("store error")
)

// failKinds lists the classes in report order.
var failKinds = []error{errTransport, errStatus, errMismatch, errOp}

// pass is one stretch of load against a stack.
type pass struct {
	ops     []op
	start   uint64 // index of the pass's first op in the ring
	do      func(w int, o op) error
	workers int
	dur     time.Duration // stop issuing after this long; 0 = no limit
	limit   int           // stop after this many ops; 0 = no limit
	// rate, when positive, runs an open loop: op j is due at
	// start + j/rate whatever happened before, and its latency runs
	// from that due time. Otherwise each worker sends its next op as
	// soon as the previous one completes.
	rate float64
	// record keeps one timing per op, indexed by position in the pass.
	record bool
}

// timing is one op's schedule: when it was due, sent and completed, in
// nanoseconds since the pass began.
type timing struct {
	due, send, done int64
}

// sliceLen is the length of the slices a pass's latencies are also
// kept in; a percentile is reported as its central mean over slices.
const sliceLen = time.Second

// hist is a latency histogram over nanoseconds. Its memory is fixed,
// so a faster program does not make the benchmark hold more samples
// (store-direct reports the benchmark process's own peak RSS).
type hist = loadgen.Hist

// record adds one latency in nanoseconds to h.
func record(h *hist, ns int64) { h.Record(uint64(max(ns, 0))) }

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

var errFewSamples = errors.New("too few samples beyond the percentile")

// quantile returns h's q-quantile in nanoseconds. It fails unless at
// least minBeyond samples lie beyond its rank: a percentile resting on
// fewer is noise.
func quantile(h *hist, q float64) (float64, error) {
	n := h.Count()
	if rank := uint64(math.Ceil(q * float64(n))); n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples: %w", 100*q, n, errFewSamples)
	}
	return float64(h.Quantile(q)), nil
}

// result is what a pass measured.
type result struct {
	get, put, late *hist
	// getSlices and putSlices hold the latencies of the ops due in each
	// sliceLen of the pass.
	getSlices, putSlices []*hist
	ops                  int // ops issued
	fails                map[error]int64
	firstErr             error
	t0                   time.Time     // when the pass began
	elapsed              time.Duration // from t0 to the last completion
	timings              []timing      // with pass.record, indexed by op position
}

func (r *result) failed() int64 {
	var n int64
	for _, c := range r.fails {
		n += c
	}
	return n
}

// run drives a pass to completion and merges its workers' histograms.
func (p pass) run() *result {
	type workerOut struct {
		get, put, late       *hist
		getSlices, putSlices []*hist
		fails                map[error]int64
		firstErr             error
		last                 int64
	}
	outs := make([]workerOut, p.workers)
	var seq atomic.Int64
	var timings []timing
	if p.record && p.limit > 0 {
		timings = make([]timing, p.limit)
	}
	var period float64
	if p.rate > 0 {
		period = float64(time.Second) / p.rate
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := workerOut{get: new(hist), put: new(hist), late: new(hist), fails: map[error]int64{}}
			prevDone := int64(0)
			for {
				j := seq.Add(1) - 1
				if p.limit > 0 && j >= int64(p.limit) {
					break
				}
				var due int64
				if period > 0 {
					due = int64(float64(j) * period)
					if p.dur > 0 && due >= int64(p.dur) {
						break
					}
					sleepUntil(t0, due)
				} else {
					due = prevDone
					if p.dur > 0 && time.Since(t0) >= p.dur {
						break
					}
				}
				o := p.ops[(p.start+uint64(j))%uint64(len(p.ops))]
				send := int64(time.Since(t0))
				err := p.do(w, o)
				done := int64(time.Since(t0))
				prevDone = done
				out.last = max(out.last, done)
				if timings != nil {
					timings[j] = timing{due: due, send: send, done: done}
				}
				record(out.late, send-due)
				lat := done - due
				if period == 0 {
					lat = done - send // a closed loop's op waits on nothing before its send
				}
				all, slices := out.get, &out.getSlices
				if o.put {
					all, slices = out.put, &out.putSlices
				}
				record(all, lat)
				k := int(due / int64(sliceLen))
				if period == 0 {
					k = int(send / int64(sliceLen))
				}
				if p.dur > 0 {
					// An op admitted just before the end belongs to the last slice.
					k = min(k, int((p.dur-1)/sliceLen))
				}
				for len(*slices) <= k {
					*slices = append(*slices, new(hist))
				}
				record((*slices)[k], lat)
				if err != nil {
					kind := errOp
					for _, k := range failKinds {
						if errors.Is(err, k) {
							kind = k
							break
						}
					}
					out.fails[kind]++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
			}
			outs[w] = out
		}(w)
	}
	wg.Wait()
	r := &result{get: new(hist), put: new(hist), late: new(hist), fails: map[error]int64{}, t0: t0}
	var last int64
	for _, o := range outs {
		r.get.Merge(o.get)
		r.put.Merge(o.put)
		r.late.Merge(o.late)
		r.getSlices = mergeSlices(r.getSlices, o.getSlices)
		r.putSlices = mergeSlices(r.putSlices, o.putSlices)
		for k, c := range o.fails {
			r.fails[k] += c
		}
		if r.firstErr == nil {
			r.firstErr = o.firstErr
		}
		last = max(last, o.last)
	}
	r.ops = int(r.get.Count() + r.put.Count())
	r.elapsed = time.Duration(last)
	if timings != nil {
		r.timings = timings[:min(r.ops, len(timings))]
	}
	return r
}

func mergeSlices(into, from []*hist) []*hist {
	for i, h := range from {
		for len(into) <= i {
			into = append(into, new(hist))
		}
		into[i].Merge(h)
	}
	return into
}

// sliceQuantile is the central mean over slices of each slice's q-quantile.
// Every slice must hold enough samples for its own quantile.
func sliceQuantile(slices []*hist, q float64) (float64, error) {
	var vs []float64
	for i, h := range slices {
		v, err := quantile(h, q)
		if err != nil {
			return 0, fmt.Errorf("slice %d: %w", i, err)
		}
		vs = append(vs, v)
	}
	return centralMean(vs), nil
}

// sleepUntil blocks until offset ns past t0. It uses nanosleep, whose
// overshoot is tens of microseconds, where the runtime's timers
// overshoot by about a millisecond on Linux: enough to dominate an
// open loop's latencies.
func sleepUntil(t0 time.Time, offset int64) {
	for {
		d := offset - int64(time.Since(t0))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		if err := syscall.Nanosleep(&ts, nil); err != nil && !errors.Is(err, syscall.EINTR) {
			return
		}
	}
}

// describe summarises a result's failures for the report.
func (r *result) describe() string {
	if r.failed() == 0 {
		return "none"
	}
	s := ""
	for _, k := range failKinds {
		if c := r.fails[k]; c > 0 {
			s += fmt.Sprintf("%d %v; ", c, k)
		}
	}
	return s + fmt.Sprintf("first: %v", r.firstErr)
}
