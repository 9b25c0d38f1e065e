// Command perfbench is the repository's benchmark. It runs one workload
// against the real program — talus-serve over loopback sockets, or a
// talus.Store in-process — checks every response against the value its
// key was written with, and prints the end-to-end metrics. With
// -trace 1 it instead replays the workload's op stream at each layer's
// public entry point and prints a per-layer latency ledger.
//
// Run it through run.sh, which builds talus-serve and this command from
// the checkout:
//
//	bash perfbench/run.sh --workload serve-get --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. DESIGN.md explains the
// workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"talus"
)

// setups is how many times a run builds its stack from nothing; setup_s
// is their median.
const setups = 3

// A GET-only workload's PUTs are timed after its window, for as long as
// the window, rewriting the keys of the stream's first putProbeOps ops.
const putProbeOps = 1 << 18

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The metrics each mode reports, with their units. BENCHMARK.json at
// the root of the repository declares the same lists.
var (
	endToEndUnits = map[string]string{
		"setup_s": "s", "throughput_ops_s": "1/s",
		"get_p50_us": "us", "get_p95_us": "us", "put_p50_us": "us", "put_p95_us": "us",
		"line_hit_ratio": "ratio", "value_hit_ratio": "ratio", "peak_rss_mb": "MB",
	}
	perLayerUnits = map[string]string{
		"loadgen.late_p99_us": "us",
		"e2e.get_p50_us":      "us", "e2e.wait_us": "us", "trace.overhead_us": "us",
		"http.self_us": "us",
		"serve.get_ns": "ns", "serve.put_ns": "ns", "serve.self_ns": "ns",
		"store.get_ns": "ns", "store.set_ns": "ns", "store.self_ns": "ns", "store.share_pct": "%",
		"store.backend_gets_per_kop": "1/kop", "store.evictions_per_kop": "1/kop", "store.admit_drops_per_kop": "1/kop",
		"adaptive.access_ns": "ns", "adaptive.self_ns": "ns",
		"core.access_ns": "ns", "core.self_ns": "ns",
		"cache.access_ns": "ns", "cache.hit_ratio": "ratio",
		"epoch.step_p50_us": "us", "epoch.step_max_us": "us", "epoch.per_s": "1/s",
		"epoch.hull_us": "us", "epoch.configure_us": "us", "epoch.alloc_us": "us",
	}
)

// checkMetrics confirms a report carries exactly the declared metrics,
// each a finite number.
func checkMetrics(r report, want map[string]string) error {
	for name, unit := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s missing", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s in %s, declared in %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if len(r.Metrics) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(r.Metrics), len(want))
	}
	return nil
}

// report is the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: serve-get, serve-mix, store-direct, or all")
		seed     = flag.Uint64("seed", 1, "seed for the op stream and the values")
		seconds  = flag.Int("seconds", 10, "length of the timed window in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end measurement")
		serveBin = flag.String("serve-bin", "", "talus-serve binary built from the checkout under test")
		spanDir  = flag.String("span-dir", "", "directory the traced run writes its spans into (empty: not written)")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) || *serveBin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1, --trace 0|1 and --serve-bin")
		os.Exit(2)
	}
	var todo []*spec
	if *name == "all" {
		todo = specs
	} else {
		s, err := specByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		todo = []*spec{s}
	}
	window := time.Duration(*seconds) * time.Second
	final := report{Correct: true, Metrics: map[string]metric{}}
	for _, s := range todo {
		runtime.GOMAXPROCS(s.gomaxprocs())
		fmt.Printf("== %s  seed %d  %s\n", s.name, *seed, fingerprint(s))
		in, err := newInputs(s, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		var rep report
		if *traced == 1 {
			if rep, err = ledger(in, *serveBin, window, *spanDir); err == nil {
				err = checkMetrics(rep, perLayerUnits)
			}
		} else {
			if rep, err = endToEnd(in, *serveBin, window); err == nil {
				err = checkMetrics(rep, endToEndUnits)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		printMetrics(rep)
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, m := range rep.Metrics {
			if len(todo) > 1 {
				k = s.name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// fingerprint identifies the host class and configuration a result was
// measured on. Results from different fingerprints are not comparable.
func fingerprint(s *spec) string {
	flags := "in-process talus.NewStore equivalent of talus-serve " + strings.Join(s.serverFlags(), " ")
	if s.overHTTP {
		flags = strings.Join(append(s.serverEnv(), "talus-serve"), " ") + " " + strings.Join(s.serverFlags(), " ")
	}
	return fmt.Sprintf("| nproc %d | cpu %q | GOMAXPROCS %d | %s | %s",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(flags))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printMetrics(r report) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("  correct %v, %d attempted, %d failed\n", r.Correct, r.Attempted, r.Failed)
}

// endToEnd sets the stack up setups times, times the workload on the
// last one, and reports the end-to-end metrics.
func endToEnd(in *inputs, serveBin string, window time.Duration) (report, error) {
	s := in.spec
	var st stack
	var pos uint64
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		cur, p, d, err := setUpOn(in, serveBin, in.spec.overHTTP)
		if err != nil {
			return report{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			if err := cur.close(); err != nil {
				return report{}, fmt.Errorf("stopping set-up %d: %w", i+1, err)
			}
			// An in-process stack's garbage must not add to the next
			// one's peak RSS.
			runtime.GC()
			continue
		}
		st, pos = cur, p
	}
	defer st.close()

	before, err := st.counters()
	if err != nil {
		return report{}, err
	}
	r := pass{ops: in.ops, start: pos, do: st.do, workers: s.workers, dur: window, rate: s.rate}.run()
	after, err := st.counters()
	if err != nil {
		return report{}, err
	}
	puts := r
	if r.put.Count() == 0 {
		// A GET-only workload times its PUTs after the window: the same
		// workers rewrite the stream's keys with the values they hold.
		rewrites := slices.Clone(in.ops[:putProbeOps])
		for i := range rewrites {
			rewrites[i].put = true
		}
		puts = pass{ops: rewrites, do: st.do, workers: s.workers, dur: window}.run()
	}
	rss, err := st.peakRSSMB()
	if err != nil {
		return report{}, err
	}
	if err := st.close(); err != nil {
		return report{}, fmt.Errorf("stopping the stack: %w", err)
	}

	delta := func(f func(t talus.TenantStats) int64) int64 { return after.sum(f) - before.sum(f) }
	hits := delta(func(t talus.TenantStats) int64 { return t.CacheHits })
	misses := delta(func(t talus.TenantStats) int64 { return t.CacheMisses })
	gets := delta(func(t talus.TenantStats) int64 { return t.Gets })
	backendGets := delta(func(t talus.TenantStats) int64 { return t.BackendGets })

	// The host's speed drifts over seconds, so each timing is the
	// central mean over the window's one-second slices of that slice's
	// figure: a slow spell that covers a few slices does not move it. A
	// percentile reads as a histogram bucket's midpoint; averaging the
	// middle slices keeps it from reading the same on every run.
	// The gated tail is p95: under serve-mix's open loop a slice's p99
	// lands either among ordinary requests or among those queued behind
	// a stall (GC, the host), and which one it is varies from run to
	// run. p99 and p999 are printed, not gated.
	throughput := float64(r.ops) / r.elapsed.Seconds()
	if s.rate == 0 {
		var perSlice []float64
		for k := range max(len(r.getSlices), len(r.putSlices)) {
			var n uint64
			if k < len(r.getSlices) {
				n += r.getSlices[k].Count()
			}
			if k < len(r.putSlices) {
				n += r.putSlices[k].Count()
			}
			perSlice = append(perSlice, float64(n)/sliceLen.Seconds())
		}
		throughput = centralMean(perSlice)
	}
	m := map[string]metric{
		"setup_s":          {median(setupTimes), "s"},
		"throughput_ops_s": {throughput, "1/s"},
		"line_hit_ratio":   {float64(hits) / float64(hits+misses), "ratio"},
		"value_hit_ratio":  {1 - float64(backendGets)/float64(gets), "ratio"},
		"peak_rss_mb":      {rss, "MB"},
	}
	for _, q := range []struct {
		name   string
		slices []*hist
		q      float64
	}{
		{"get_p50_us", r.getSlices, 0.50}, {"get_p95_us", r.getSlices, 0.95},
		{"put_p50_us", puts.putSlices, 0.50}, {"put_p95_us", puts.putSlices, 0.95},
	} {
		v, err := sliceQuantile(q.slices, q.q)
		if err != nil {
			return report{}, fmt.Errorf("%s: %w", q.name, err)
		}
		m[q.name] = metric{v / 1e3, "us"}
	}
	fmt.Printf("  window: %d ops in %.3fs (%s loop%s), %d GET and %d PUT samples in %d one-second slices\n",
		r.ops, r.elapsed.Seconds(), loopKind(s), rateNote(s), r.get.Count(), r.put.Count(), len(r.getSlices))
	fmt.Printf("  not gated:")
	for _, t := range []struct {
		name string
		h    *hist
		q    float64
	}{{"GET p99", r.get, 0.99}, {"GET p999", r.get, 0.999}, {"PUT p99", r.put, 0.99}, {"generator late p99", r.late, 0.99}} {
		if v, err := quantile(t.h, t.q); err == nil {
			fmt.Printf(" %s %.1f us (%d beyond);", t.name, v/1e3, t.h.Count()-uint64(math.Ceil(t.q*float64(t.h.Count()))))
		}
	}
	fmt.Printf(" %d epoch steps\n", after.epochs-before.epochs)
	fmt.Printf("  GET p50/p95/p99 per slice (us):")
	for _, h := range r.getSlices {
		fmt.Print(" ")
		for i, q := range []float64{0.5, 0.95, 0.99} {
			if v, err := quantile(h, q); err == nil {
				if i > 0 {
					fmt.Print("/")
				}
				fmt.Printf("%.0f", v/1e3)
			}
		}
	}
	fmt.Println()
	if puts != r {
		fmt.Printf("  PUTs timed after the window: %d rewrites in %.3fs, failures: %s\n", puts.ops, puts.elapsed.Seconds(), puts.describe())
	}
	fmt.Printf("  setup times %v s; fail_ratio %.6f (%s)\n", setupTimes, float64(r.failed())/float64(r.ops), r.describe())
	attempted, failed := int64(r.ops), r.failed()
	if puts != r {
		attempted, failed = attempted+int64(puts.ops), failed+puts.failed()
	}
	return report{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

func loopKind(s *spec) string {
	if s.rate > 0 {
		return "open"
	}
	return "closed"
}

func rateNote(s *spec) string {
	if s.rate > 0 {
		return fmt.Sprintf(" at %.0f ops/s", s.rate)
	}
	return fmt.Sprintf(", %d workers flat-out", s.workers)
}

// centralMean is the mean of the middle fifth of xs, at least one
// value. Like the median, it ignores up to two fifths of the values on
// either side; unlike it, it averages several.
func centralMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	d := len(s) * 2 / 5
	var t float64
	for _, x := range s[d : len(s)-d] {
		t += x
	}
	return t / float64(len(s)-2*d)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
