package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"talus"
	"talus/internal/adaptive"
	"talus/internal/alloc"
	"talus/internal/core"
	"talus/internal/curve"
	"talus/internal/hash"
	"talus/internal/hull"
	"talus/internal/sim"
)

// The ledger replays one op list at each layer's public entry point, top
// to bottom. Each layer runs on its own stack, built, preloaded and
// warmed up like the others, so every layer sees each op once and in
// the same order. An op's span at one layer has as parent its span at
// the layer above, so all spans of an op share its request id.
// The program itself is not instrumented: the spans wrap the calls the
// benchmark makes.
var chain = []string{"socket", "serve", "store", "adaptive", "core", "cache"}

// ledgerOps is how many ops of the stream the ledger replays; GET-only
// streams get ledgerPuts rewrites of existing keys appended, so every
// layer's PUT path is timed too.
const (
	ledgerOps  = 20000
	ledgerPuts = 5000
)

// span is one timed call. Times are nanoseconds since traceBase.
type span struct {
	id         int
	layer      string
	parent     int // index into the span list; -1 for a root
	start, end int64
}

var traceBase = time.Now()

func sinceBase() int64 { return int64(time.Since(traceBase)) }

// maxRecorded caps how many ops of the workload's load keep their
// schedule as spans.
const maxRecorded = 100000

// ledger is the traced run: the workload's own load, then the
// per-layer ledger with its accounting check, then the epoch step.
func ledger(in *inputs, serveBin string, window time.Duration, spanDir string) (report, error) {
	s := in.spec
	m := map[string]metric{}
	var spans []span

	// 1. The workload's own load. An untraced pass gives the per-op time
	// under load, the generator's lateness, the epoch rate and the
	// store's counters; a second pass keeps each op's schedule.
	st, pos, _, err := setUpOn(in, serveBin, s.overHTTP)
	if err != nil {
		return report{}, err
	}
	defer st.close()
	d := max(window/4, time.Second)
	c0, err := st.counters()
	if err != nil {
		return report{}, err
	}
	plain := pass{ops: in.ops, start: pos, do: st.do, workers: s.workers, dur: d, rate: s.rate}.run()
	c1, err := st.counters()
	if err != nil {
		return report{}, err
	}
	pos += uint64(plain.ops)
	sched := pass{ops: in.ops, start: pos, do: st.do, workers: s.workers, dur: d, rate: s.rate,
		record: true, limit: min(plain.ops, maxRecorded)}.run()
	if err := st.close(); err != nil {
		return report{}, fmt.Errorf("stopping the workload's stack: %w", err)
	}
	attempted := int64(plain.ops + sched.ops)
	failed := plain.failed() + sched.failed()
	e2eP50, err := quantile(plain.get, 0.5)
	if err != nil {
		return report{}, err
	}
	late, err := quantile(plain.late, 0.99)
	if err != nil {
		return report{}, err
	}
	perKop := func(f func(t talus.TenantStats) int64) float64 {
		return 1000 * float64(c1.sum(f)-c0.sum(f)) / float64(plain.ops)
	}
	e2eMean := (plain.get.Mean()*float64(plain.get.Count()) + plain.put.Mean()*float64(plain.put.Count())) / float64(plain.ops)
	m["e2e.get_p50_us"] = metric{e2eP50 / 1e3, "us"}
	m["loadgen.late_p99_us"] = metric{late / 1e3, "us"}
	m["epoch.per_s"] = metric{float64(c1.epochs-c0.epochs) / plain.elapsed.Seconds(), "1/s"}
	m["store.backend_gets_per_kop"] = metric{perKop(func(t talus.TenantStats) int64 { return t.BackendGets }), "1/kop"}
	m["store.evictions_per_kop"] = metric{perKop(func(t talus.TenantStats) int64 { return t.Evictions }), "1/kop"}
	m["store.admit_drops_per_kop"] = metric{perKop(func(t talus.TenantStats) int64 { return t.AdmitDrops }), "1/kop"}

	// 2. The ledger: one op list through every layer, and once more,
	// untraced, through the workload's entry point. Each run has its own
	// stack; the runs take turns a chunk of ops at a time, so a slow
	// moment on the host lands on all of them alike.
	ops := slices.Clone(in.ops[:ledgerOps])
	if s.putFrac == 0 {
		for k := 0; k < ledgerPuts; k++ {
			ops = append(ops, op{tenant: 0, put: true, key: uint32(k % len(in.tenants[0].keys))})
		}
	}
	n := len(ops)
	entry := "socket"
	if !s.overHTTP {
		entry = "store"
	}
	top := slices.Index(chain, entry)
	runs := make([]*layerRun, len(chain))
	for i, layer := range chain {
		if runs[i], err = newLayerRun(in, layer, ops, serveBin); err != nil {
			return report{}, fmt.Errorf("%s ledger: %w", layer, err)
		}
		defer runs[i].close()
	}
	bare, err := newLayerRun(in, entry, ops, serveBin)
	if err != nil {
		return report{}, fmt.Errorf("untraced %s ledger: %w", entry, err)
	}
	defer bare.close()
	bare.untraced = true
	if err := replay(slices.Insert(slices.Clone(runs), top+1, bare), n); err != nil {
		return report{}, err
	}
	attempted += int64((len(runs) + 1) * n)
	medians := make([]float64, len(chain))
	for i := range chain {
		ds := make([]float64, n)
		for j, c := range runs[i].calls {
			ds[j] = float64(c.end - c.start)
		}
		medians[i] = median(ds)
	}
	cacheHits := *runs[len(chain)-1].hits
	ep, err := timeEpochs(runs[slices.Index(chain, "store")].stack, in)
	if err != nil {
		return report{}, err
	}

	// Spans: the ledger's ops have request ids 0..n-1, the workload's
	// recorded ops n on. Op j's span at layer i is the child of its span
	// at layer i-1; a workload op's request span is the child of its
	// loadgen span, which runs from its due time.
	for i, layer := range chain {
		for j, c := range runs[i].calls {
			parent := -1
			if i > 0 {
				parent = (i-1)*n + j
			}
			spans = append(spans, span{id: j, layer: layer, parent: parent, start: c.start, end: c.end})
		}
	}
	t0 := int64(sched.t0.Sub(traceBase))
	for j, t := range sched.timings {
		root := len(spans)
		spans = append(spans,
			span{id: n + j, layer: "loadgen", parent: -1, start: t0 + t.due, end: t0 + t.done},
			span{id: n + j, layer: "request", parent: root, start: t0 + t.send, end: t0 + t.done})
	}
	self := selfTimes(spans)
	selfOf := func(i, j int) int64 { return self[i*n+j] }

	// The accounting check, chunk by chunk: the self times of the entry
	// layer and every layer below it, summed, against the same ops run
	// untraced at the entry point.
	var tracedPerOp, untracedPerOp []float64
	var untracedSum int64
	for k, c := range bare.chunks {
		lo, hi := k*replayChunk, min((k+1)*replayChunk, n)
		var t int64
		for j := lo; j < hi; j++ {
			for i := top; i < len(chain); i++ {
				t += selfOf(i, j)
			}
		}
		tracedPerOp = append(tracedPerOp, float64(t)/float64(hi-lo))
		untracedPerOp = append(untracedPerOp, float64(c.end-c.start)/float64(hi-lo))
		untracedSum += c.end - c.start
	}
	cost := spanCost()
	acct, acctErr := account(tracedPerOp, untracedPerOp, cost)
	untracedMean := float64(untracedSum) / float64(n)

	// The per-layer figures. A span far beyond its layer's median caught
	// a stall of the host or the runtime, not the op's own cost. Such ops
	// leave every layer's means, so the means still add up op for op.
	keep := make([]bool, n)
	kept := 0
	for j := range ops {
		keep[j] = true
		for i := range chain {
			c := runs[i].calls[j]
			if float64(c.end-c.start) > stallFactor*medians[i] {
				keep[j] = false
			}
		}
		if keep[j] {
			kept++
		}
	}
	durs := func(i int, keep func(o op) bool) []float64 {
		var xs []float64
		for j, c := range runs[i].calls {
			if keep(ops[j]) {
				xs = append(xs, float64(c.end-c.start))
			}
		}
		return xs
	}
	gets := func(o op) bool { return !o.put }
	puts := func(o op) bool { return o.put }
	all := func(op) bool { return true }
	mean := func(i int) float64 {
		var t float64
		for j, c := range runs[i].calls {
			if keep[j] {
				t += float64(c.end - c.start)
			}
		}
		return t / float64(kept)
	}
	selfMean := func(i int) float64 {
		var t int64
		for j := range ops {
			if keep[j] {
				t += selfOf(i, j)
			}
		}
		return float64(t) / float64(kept)
	}
	layer := func(name string) int { return slices.Index(chain, name) }
	m["http.self_us"] = metric{selfMean(layer("socket")) / 1e3, "us"}
	m["serve.get_ns"] = metric{median(durs(layer("serve"), gets)), "ns"}
	m["serve.put_ns"] = metric{median(durs(layer("serve"), puts)), "ns"}
	m["serve.self_ns"] = metric{selfMean(layer("serve")), "ns"}
	m["store.get_ns"] = metric{median(durs(layer("store"), gets)), "ns"}
	m["store.set_ns"] = metric{median(durs(layer("store"), puts)), "ns"}
	m["store.self_ns"] = metric{selfMean(layer("store")), "ns"}
	for _, l := range []string{"adaptive", "core", "cache"} {
		m[l+".access_ns"] = metric{median(durs(layer(l), all)), "ns"}
	}
	m["adaptive.self_ns"] = metric{selfMean(layer("adaptive")), "ns"}
	m["core.self_ns"] = metric{selfMean(layer("core")), "ns"}
	m["cache.hit_ratio"] = metric{float64(cacheHits) / float64(n), "ratio"}
	m["trace.overhead_us"] = metric{acct.gap / 1e3, "us"}
	m["e2e.wait_us"] = metric{(e2eMean - untracedMean) / 1e3, "us"}
	m["store.share_pct"] = metric{100 * mean(layer("store")) / e2eMean, "%"}
	m["epoch.step_p50_us"] = metric{median(ep.step) / 1e3, "us"}
	m["epoch.step_max_us"] = metric{slices.Max(ep.step) / 1e3, "us"}
	m["epoch.hull_us"] = metric{median(ep.hull) / 1e3, "us"}
	m["epoch.configure_us"] = metric{median(ep.configure) / 1e3, "us"}
	m["epoch.alloc_us"] = metric{median(ep.alloc) / 1e3, "us"}

	socket := mean(0)
	fmt.Printf("  %-9s %12s %12s %12s %12s %9s\n", "layer", "GET p50 ns", "PUT p50 ns", "mean ns/op", "self ns/op", "% of op")
	for i, l := range chain {
		fmt.Printf("  %-9s %12.0f %12.0f %12.0f %12.0f %8.2f%%\n", l,
			median(durs(i, gets)), median(durs(i, puts)), mean(i), selfMean(i), 100*selfMean(i)/socket)
	}
	fmt.Printf("  (means over %d of %d ops; %d had a span over %gx its layer's median)\n", kept, n, n-kept, stallFactor)
	verdict := "ok"
	if acctErr != nil {
		verdict = "FAILED"
	}
	fmt.Printf("  accounting (%s and below, medians over %d chunks of %d ops): self times sum to %.1f ns/op, untraced %.1f ns/op; tracing overhead %+.1f ns/op, tolerance %.1f ns/op (tracing's own cost %.1f + 3 standard errors): %s\n",
		entry, len(bare.chunks), replayChunk, acct.traced, acct.untraced, acct.gap, acct.tolerance, cost, verdict)
	fmt.Printf("  workload (%s loop%s): e2e GET p50 %.1f us; mean %.1f us/op under load, %.1f us over the untraced %s replay; generator late p99 %.1f us\n",
		loopKind(s), rateNote(s), e2eP50/1e3, e2eMean/1e3, (e2eMean-untracedMean)/1e3, entry, late/1e3)
	fmt.Printf("  epoch step p50 %.0f us, max %.0f us (%d forced steps); on live curves: hull %.1f us, allocate %.1f us, configure %.1f us\n",
		median(ep.step)/1e3, slices.Max(ep.step)/1e3, len(ep.step), median(ep.hull)/1e3, median(ep.alloc)/1e3, median(ep.configure)/1e3)
	if acctErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: accounting: %v\n", s.name, acctErr)
	}
	if spanDir != "" {
		if err := writeSpans(filepath.Join(spanDir, "spans-"+s.name+".tsv"), spans); err != nil {
			return report{}, err
		}
	}
	return report{Correct: failed == 0 && acctErr == nil, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// replayChunk is how many ops a run replays before the next run takes
// its turn.
const replayChunk = 1024

// call is one timed call, in nanoseconds since traceBase.
type call struct{ start, end int64 }

// layerRun replays the ledger's ops at one layer's entry point.
type layerRun struct {
	name    string
	prepare func(lo, hi int) // builds a chunk's inputs before any call is timed; may be nil
	do      func(j int)
	check   func(j int) error // verifies call j once its chunk ran; may be nil
	// untraced runs time each chunk as a whole, into chunks; the others
	// time each call, into calls.
	untraced bool
	calls    []call
	chunks   []call
	hits     *int         // cache hits, for the cache layer
	stack    *directStack // the layer's own stack, for in-process layers
	close    func() error
}

// replay runs every layer's calls, the runs taking turns a chunk at a
// time. An untraced run follows its traced twin in runs; every other
// turn it goes first instead, so that neither always runs on the CPU
// caches the other left.
func replay(runs []*layerRun, n int) error {
	for _, r := range runs {
		if !r.untraced {
			r.calls = make([]call, n)
		}
	}
	swapped := slices.Clone(runs)
	for i := 1; i < len(swapped); i++ {
		if swapped[i].untraced {
			swapped[i-1], swapped[i] = swapped[i], swapped[i-1]
		}
	}
	for lo := 0; lo < n; lo += replayChunk {
		hi := min(lo+replayChunk, n)
		order := runs
		if lo/replayChunk%2 == 1 {
			order = swapped
		}
		for _, r := range order {
			if r.prepare != nil {
				r.prepare(lo, hi)
			}
			if r.untraced {
				r.chunks = append(r.chunks, runChunk(r.do, lo, hi))
			} else {
				traceChunk(r.do, r.calls, lo, hi)
			}
			if r.check == nil {
				continue
			}
			for j := lo; j < hi; j++ {
				if err := r.check(j); err != nil {
					return fmt.Errorf("%s ledger, op %d: %w", r.name, j, err)
				}
			}
		}
	}
	return nil
}

// traceChunk calls do(j) for j in [lo, hi), timing each call into
// calls[j].
//
//go:noinline
func traceChunk(do func(int), calls []call, lo, hi int) {
	for j := lo; j < hi; j++ {
		start := sinceBase()
		do(j)
		calls[j] = call{start, sinceBase()}
	}
}

// runChunk calls do(j) for j in [lo, hi) and times them together.
//
//go:noinline
func runChunk(do func(int), lo, hi int) call {
	start := sinceBase()
	for j := lo; j < hi; j++ {
		do(j)
	}
	return call{start, sinceBase()}
}

// spanCost is what tracing itself adds to an op: a traced chunk's time
// minus an untraced one's, per call, on a call that does nothing.
func spanCost() float64 {
	const n = 1 << 16
	calls := make([]call, n)
	nop := func(int) {}
	var costs []float64
	for range 7 {
		t := sinceBase()
		traceChunk(nop, calls, 0, n)
		traced := sinceBase() - t
		u := runChunk(nop, 0, n)
		costs = append(costs, float64(traced-(u.end-u.start))/n)
	}
	return max(median(costs), 0)
}

// accounting is the outcome of the ledger's check.
type accounting struct {
	traced, untraced float64 // per-op times, medians over chunks
	gap              float64 // traced minus untraced: the tracing overhead, median over chunks
	tolerance        float64
}

// minChunks is the fewest chunk pairs the accounting check accepts.
const minChunks = 8

// account checks that the layers' self times, summed per op, account
// for the time the same ops take untraced. traced[k] and untraced[k]
// are chunk k's per-op times, measured side by side. The gap between
// them may not exceed what tracing itself costs an op (spanCost) plus
// three standard errors of the gaps' median: a larger gap is time the
// spans lost or added.
func account(traced, untraced []float64, spanCost float64) (accounting, error) {
	if len(traced) != len(untraced) || len(traced) < minChunks {
		return accounting{}, fmt.Errorf("%d traced and %d untraced chunks, need %d of each", len(traced), len(untraced), minChunks)
	}
	gaps := make([]float64, len(traced))
	for k := range traced {
		gaps[k] = traced[k] - untraced[k]
	}
	g := median(gaps)
	dev := make([]float64, len(gaps))
	for k, x := range gaps {
		dev[k] = math.Abs(x - g)
	}
	// 1.4826·MAD estimates the gaps' standard deviation robustly, and
	// the median of k samples has a standard error of 1.2533·σ/√k.
	se := 1.2533 * 1.4826 * median(dev) / math.Sqrt(float64(len(gaps)))
	a := accounting{traced: median(traced), untraced: median(untraced), gap: g, tolerance: spanCost + 3*se}
	if math.Abs(g) > a.tolerance {
		return a, fmt.Errorf("self times sum to %.1f ns/op, the same ops untraced take %.1f ns/op: gap %+.1f ns/op, tolerance %.1f ns/op",
			a.traced, a.untraced, g, a.tolerance)
	}
	return a, nil
}

// newLayerRun prepares layer's replay of ops on a stack of its own, set
// up like the workload's: a talus-serve process for the socket layer,
// in-process for the others.
func newLayerRun(in *inputs, layer string, ops []op, serveBin string) (*layerRun, error) {
	if layer == "socket" {
		st, err := setUpAlike(in, serveBin, true)
		if err != nil {
			return nil, err
		}
		errs := make([]error, len(ops))
		return &layerRun{
			name:  layer,
			do:    func(j int) { errs[j] = st.do(0, ops[j]) },
			check: func(j int) error { return errs[j] },
			close: st.close,
		}, nil
	}

	st, err := setUpAlike(in, "", false)
	if err != nil {
		return nil, err
	}
	d := st.(*directStack)
	run := &layerRun{name: layer, stack: d, close: d.close}
	ac := d.st.Cache()
	sc := ac.Shadowed()
	// Where the store sends each op: its line address in the tenant's
	// partition space.
	parts := make([]int, len(in.tenants))
	for i, t := range in.tenants {
		ts, err := d.st.Stats(t.name)
		if err != nil {
			d.close()
			return nil, err
		}
		parts[i] = ts.Partition
	}
	addrs := make([]uint64, len(ops))
	for j, o := range ops {
		t := in.tenants[o.tenant]
		addrs[j] = lineAddr(t.keys[o.key]) | sim.AppSpace(parts[o.tenant])
	}

	switch layer {
	case "serve":
		h := talus.NewServeHandler(d.st, talus.ServeConfig{MaxValueBytes: 1 << 20})
		reqs := make([]*http.Request, len(ops))
		recs := make([]*httptest.ResponseRecorder, len(ops))
		run.prepare = func(lo, hi int) {
			if lo > 0 { // let the previous chunk's requests go
				clear(reqs[lo-replayChunk : lo])
				clear(recs[lo-replayChunk : lo])
			}
			for j := lo; j < hi; j++ {
				t := in.tenants[ops[j].tenant]
				path := "/v1/cache/" + t.name + "/" + t.keys[ops[j].key]
				if ops[j].put {
					reqs[j] = httptest.NewRequest(http.MethodPut, path, bytes.NewReader(t.values[ops[j].key]))
				} else {
					reqs[j] = httptest.NewRequest(http.MethodGet, path, nil)
				}
				recs[j] = httptest.NewRecorder()
			}
		}
		run.do = func(j int) { h.ServeHTTP(recs[j], reqs[j]) }
		run.check = func(j int) error {
			o, rec := ops[j], recs[j]
			switch {
			case o.put && rec.Code/100 != 2, !o.put && rec.Code != http.StatusOK:
				return fmt.Errorf("%w: %d", errStatus, rec.Code)
			case !o.put && !bytes.Equal(rec.Body.Bytes(), in.tenants[o.tenant].values[o.key]):
				return errMismatch
			}
			return nil
		}

	case "store":
		got := make([][]byte, len(ops))
		errs := make([]error, len(ops))
		run.do = func(j int) {
			t := in.tenants[ops[j].tenant]
			if ops[j].put {
				_, errs[j] = d.st.SetTTL(t.name, t.keys[ops[j].key], t.values[ops[j].key], 0)
			} else {
				got[j], _, errs[j] = d.st.Get(t.name, t.keys[ops[j].key])
			}
		}
		run.check = func(j int) error {
			switch {
			case errs[j] != nil:
				return fmt.Errorf("%w: %v", errOp, errs[j])
			case !ops[j].put && !bytes.Equal(got[j], in.tenants[ops[j].tenant].values[ops[j].key]):
				return errMismatch
			}
			return nil
		}

	case "adaptive":
		if err := checkLineAddr(d, in); err != nil {
			d.close()
			return nil, err
		}
		run.do = func(j int) { ac.Access(addrs[j], parts[ops[j].tenant]) }

	case "core":
		run.do = func(j int) { sc.Access(addrs[j], parts[ops[j].tenant]) }

	case "cache":
		// The core's sampler sends a partition's accesses to its α or β
		// shadow partition at the configured rate ρ. Its samplers are
		// internal, so the ledger draws the split with its own sampler
		// at the same ρ.
		inner := sc.Inner()
		shadows := make([]int, len(ops))
		samplers := make([]*hash.Sampler, len(in.tenants))
		for i := range in.tenants {
			samplers[i] = hash.NewSampler(0x5EED + uint64(i))
			samplers[i].SetRate(sc.Config(parts[i]).Rho)
		}
		for j, o := range ops {
			shadows[j] = 2 * parts[o.tenant]
			if !samplers[o.tenant].ToAlpha(addrs[j]) {
				shadows[j]++
			}
		}
		run.hits = new(int)
		run.do = func(j int) {
			if inner.Access(addrs[j], shadows[j]) {
				*run.hits++
			}
		}

	default:
		d.close()
		return nil, fmt.Errorf("no layer %q", layer)
	}
	return run, nil
}

// recorder captures the store's record hook.
type recorder struct {
	part []int
	addr []uint64
}

func (r *recorder) Append(p int, addr uint64) error {
	r.part = append(r.part, p)
	r.addr = append(r.addr, addr)
	return nil
}

// checkLineAddr confirms through the store's record hook that the
// ledger addresses the same lines the store does.
func checkLineAddr(d *directStack, in *inputs) error {
	var r recorder
	if err := d.st.SetRecorder(&r); err != nil {
		return err
	}
	t := in.tenants[0]
	_, _, getErr := d.st.Get(t.name, t.keys[0])
	if err := d.st.SetRecorder(nil); err != nil {
		return err
	}
	if getErr != nil {
		return getErr
	}
	ts, err := d.st.Stats(t.name)
	if err != nil {
		return err
	}
	if len(r.addr) != 1 || r.part[0] != ts.Partition || r.addr[0] != lineAddr(t.keys[0]) {
		return fmt.Errorf("store recorded %v/%#x for %s/%s, the ledger computes %d/%#x",
			r.part, r.addr, t.name, t.keys[0], ts.Partition, lineAddr(t.keys[0]))
	}
	return nil
}

// epochTimes are the epoch step and its stages, in nanoseconds.
type epochTimes struct {
	step, hull, configure, alloc []float64
}

// epochSteps and stageReps size the epoch timing.
const (
	epochSteps = 20
	stageReps  = 50
)

// timeEpochs times forced epoch steps on a warmed stack, each after a
// stretch of the op stream so the step has curves to extract, then
// times the step's stages on copies of the live curves.
func timeEpochs(d *directStack, in *inputs) (epochTimes, error) {
	var et epochTimes
	pos := uint64(ledgerOps)
	ac := d.st.Cache()
	// Drive fewer accesses than the epoch budget between forced steps,
	// so the access clock never runs the step first and leaves the
	// forced one an empty epoch.
	budget := in.spec.epoch
	if budget == 0 {
		budget = adaptive.DefaultEpochAccesses
	}
	for i := 0; i < epochSteps; i++ {
		r := pass{ops: in.ops, start: pos, do: d.do, workers: 1, limit: int(min(budget/2, 2048))}.run()
		pos += uint64(r.ops)
		if r.failed() > 0 {
			return et, fmt.Errorf("epoch timing: %s", r.describe())
		}
		t := time.Now()
		err := ac.ForceEpoch()
		et.step = append(et.step, float64(time.Since(t)))
		if err != nil {
			return et, fmt.Errorf("forced epoch: %w", err)
		}
	}
	curves := make([]*curve.Curve, ac.NumLogical())
	for p := range curves {
		c := ac.Curve(p)
		if c == nil {
			return et, fmt.Errorf("partition %d has no curve after %d epochs", p, epochSteps)
		}
		cp, err := curve.New(c.Points())
		if err != nil {
			return et, err
		}
		curves[p] = cp
	}
	capacity := ac.Shadowed().Inner().PartitionableCapacity()
	hulls := make([]*curve.Curve, len(curves))
	var allocs []int64
	for i := 0; i < stageReps; i++ {
		t := time.Now()
		for p, c := range curves {
			hulls[p] = hull.Lower(c)
		}
		et.hull = append(et.hull, float64(time.Since(t)))

		req := alloc.Request{Curves: hulls, Total: capacity, Granule: max(capacity/64, 1)}
		t = time.Now()
		a, err := ac.Allocator().Allocate(req)
		et.alloc = append(et.alloc, float64(time.Since(t)))
		if err != nil {
			return et, fmt.Errorf("allocate: %w", err)
		}
		allocs = a

		t = time.Now()
		for p, h := range hulls {
			if allocs[p] == 0 {
				continue // an empty partition has nothing to configure
			}
			if _, err := core.ConfigureOnHull(h, float64(allocs[p]), core.DefaultMargin); err != nil {
				return et, fmt.Errorf("configure partition %d: %w", p, err)
			}
		}
		et.configure = append(et.configure, float64(time.Since(t)))
	}
	return et, nil
}

// stallFactor is how far beyond its layer's median a span must run for
// its op to count as stalled.
const stallFactor = 20.0

// selfTimes returns each span's self time: its duration minus its
// children's.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// writeSpans writes spans as tab-separated rows: request id, layer,
// parent (layer:id, or - for a root), start and end in nanoseconds.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tlayer\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		parent := "-"
		if s.parent >= 0 {
			parent = fmt.Sprintf("%s:%d", spans[s.parent].layer, spans[s.parent].id)
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.id, s.layer, parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
