package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// streamBytes serialises everything a run sends: op stream and values.
func streamBytes(t *testing.T, in *inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, o := range in.ops {
		binary.Write(&b, binary.LittleEndian, o)
	}
	for _, tn := range in.tenants {
		for i, k := range tn.keys {
			b.WriteString(tn.name + "/" + k)
			b.Write(tn.values[i])
		}
	}
	return b.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, s := range specs {
		a, err := newInputs(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newInputs(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newInputs(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamBytes(t, a), streamBytes(t, b)) {
			t.Errorf("%s: seed 7 gave two different streams", s.name)
		}
		if bytes.Equal(streamBytes(t, a), streamBytes(t, c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", s.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, s := range specs {
		in, err := newInputs(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		puts := 0
		perTenant := make([]int, len(in.tenants))
		for _, o := range in.ops {
			if o.put {
				puts++
			}
			perTenant[o.tenant]++
		}
		if got := float64(puts) / float64(len(in.ops)); got < s.putFrac-0.01 || got > s.putFrac+0.01 {
			t.Errorf("%s: PUT share %.3f, want %.2f", s.name, got, s.putFrac)
		}
		for i, td := range s.tenants {
			if got := float64(perTenant[i]) / float64(len(in.ops)); got < td.share-0.01 || got > td.share+0.01 {
				t.Errorf("%s: tenant %s share %.3f, want %.2f", s.name, td.name, got, td.share)
			}
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	h := new(hist)
	for i := 0; i < 999; i++ {
		record(h, int64(1000+i))
	}
	if _, err := quantile(h, 0.99); !errors.Is(err, errFewSamples) {
		t.Errorf("p99 of 999 samples (9 beyond): err %v, want errFewSamples", err)
	}
	record(h, 5000)
	v, err := quantile(h, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples (10 beyond): %v", err)
	}
	if v < 1930 || v > 2050 {
		t.Errorf("p99 of 1000..1998 plus 5000 = %.1f, want ≈1989 within the histogram's 3%%", v)
	}
	if _, err := sliceQuantile([]*hist{h, new(hist)}, 0.5); !errors.Is(err, errFewSamples) {
		t.Errorf("a slice without samples: err %v, want errFewSamples", err)
	}
}

func TestCentralMeanIgnoresTwoFifthsEachSide(t *testing.T) {
	xs := []float64{900, 1, 2, 3, 4, 5, 6, 7, 8, 800}
	if got := centralMean(xs); got != 5.5 {
		t.Errorf("central mean of %v = %v, want 5.5 (the mean of 5 and 6)", xs, got)
	}
	if got := centralMean([]float64{7}); got != 7 {
		t.Errorf("central mean of 7 = %v, want 7", got)
	}
}

// fakeServer serves the first tenant's keys like talus-serve, except
// that key 1 answers 404 and key 2 a wrong body.
func fakeServer(in *inputs) *httptest.Server {
	tn := in.tenants[0]
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Path[strings.LastIndex(r.URL.Path, "/")+1:]
		switch {
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusNoContent)
		case key == tn.keys[1]:
			http.NotFound(w, r)
		case key == tn.keys[2]:
			w.Write(tn.values[3])
		default:
			for i, k := range tn.keys {
				if k == key {
					w.Write(tn.values[i])
				}
			}
		}
	}))
}

func clientFor(in *inputs, base string) *httpStack {
	s := &httpStack{in: in, base: base, hc: &http.Client{}, bufs: []*bytes.Buffer{new(bytes.Buffer)}}
	for _, t := range in.tenants {
		var urls []string
		for _, k := range t.keys {
			urls = append(urls, base+"/v1/cache/"+t.name+"/"+k)
		}
		s.urls = append(s.urls, urls)
	}
	return s
}

func TestFailuresAreCounted(t *testing.T) {
	in, err := newInputs(specs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := fakeServer(in)
	ops := []op{{key: 0}, {key: 1}, {key: 2}, {key: 3, put: true}, {key: 4}}
	r := pass{ops: ops, do: clientFor(in, srv.URL).do, workers: 1, limit: len(ops)}.run()
	if r.ops != 5 || r.failed() != 2 || r.fails[errStatus] != 1 || r.fails[errMismatch] != 1 {
		t.Errorf("against the fake server: %d ops, failures %v, want 5 ops, one 404 and one mismatch", r.ops, r.fails)
	}
	srv.Close()
	r = pass{ops: ops, do: clientFor(in, srv.URL).do, workers: 1, limit: len(ops)}.run()
	if r.failed() != 5 || r.fails[errTransport] != 5 {
		t.Errorf("against a closed server: failures %v, want 5 transport errors", r.fails)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	ops := make([]op, 20)
	stall := func(w int, o op) error {
		if o.key == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		return nil
	}
	ops[0].key = 0
	for i := 1; i < len(ops); i++ {
		ops[i].key = 1
	}
	// One worker, an op due every millisecond: the 20 ms stall on the
	// first op makes the next ones late, and their latency must count
	// that wait.
	r := pass{ops: ops, do: stall, workers: 1, rate: 1000, limit: len(ops), record: true}.run()
	var fromDue, fromSend float64
	for _, tm := range r.timings {
		fromDue += float64(tm.done - tm.due)
		fromSend += float64(tm.done - tm.send)
	}
	if got := total(r.get); math.Abs(got-fromDue) > 1 {
		t.Errorf("open loop recorded %.0f ns in total, want done-due %.0f (done-send is %.0f)", got, fromDue, fromSend)
	}
	if late := r.timings[1].send - r.timings[1].due; late < int64(15*time.Millisecond) {
		t.Errorf("op 1 was sent %v after it was due, want ≥15ms behind the stalled op", time.Duration(late))
	}
	if r.get.Max() < uint64(15*time.Millisecond) || r.get.Count() != 20 {
		t.Errorf("max latency %v over %d ops, want the queued ops ≥15ms", time.Duration(r.get.Max()), r.get.Count())
	}

	// A closed loop times each op from its send.
	r = pass{ops: ops, do: stall, workers: 1, limit: len(ops), record: true}.run()
	fromSend = 0
	for _, tm := range r.timings {
		fromSend += float64(tm.done - tm.send)
	}
	if got := total(r.get); math.Abs(got-fromSend) > 1 {
		t.Errorf("closed loop recorded %.0f ns in total, want done-send %.0f", got, fromSend)
	}
}

// total is the sum of h's samples.
func total(h *hist) float64 { return h.Mean() * float64(h.Count()) }

func TestLineAddrMatchesStore(t *testing.T) {
	in, err := newInputs(specs[2], 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDirect(in)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := preload(d, in, in.spec.workers); err != nil {
		t.Fatal(err)
	}
	if err := checkLineAddr(d, in); err != nil {
		t.Error(err)
	}
}

// droppingStack acknowledges one write without performing it, as a
// writer that skips keys would.
type droppingStack struct {
	*directStack
	drop op
}

func (d droppingStack) do(w int, o op) error {
	if o == d.drop {
		return nil
	}
	return d.directStack.do(w, o)
}

func TestPreloadRejectsMissingKeys(t *testing.T) {
	for _, s := range []*spec{specs[0], specs[2]} { // unbounded and bounded stacks
		in, err := newInputs(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDirect(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := preload(droppingStack{d, op{put: true, key: 5}}, in, s.workers); err == nil {
			t.Errorf("%s: a preload that skipped a key passed", s.name)
		}
		d.close()
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 0, layer: "socket", parent: -1, start: 0, end: 100},
		{id: 0, layer: "serve", parent: 0, start: 10, end: 60},
		{id: 0, layer: "store", parent: 1, start: 20, end: 40},
		{id: 1, layer: "socket", parent: -1, start: 200, end: 230},
	}
	got := selfTimes(spans)
	if want := []int64{50, 30, 20, 30}; !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestAccountingCheck(t *testing.T) {
	// Chunk per-op times drift with the host; the traced ones run beside
	// the untraced ones, so they share the drift.
	untraced := make([]float64, 20)
	for k := range untraced {
		untraced[k] = 1000 + 50*math.Sin(float64(k))
	}
	with := func(gap float64) []float64 {
		out := make([]float64, len(untraced))
		for k, u := range untraced {
			out[k] = u + gap + 4*math.Cos(3*float64(k)) // a few ns of noise per chunk
		}
		return out
	}
	if _, err := account(with(3), untraced, 10); err != nil {
		t.Errorf("a gap within tracing's own cost failed: %v", err)
	}
	// Spans that lose or add 5% of an op's time fail the check, whether
	// or not tracing costs anything.
	for _, gap := range []float64{-50, 50} {
		for _, cost := range []float64{0, 10} {
			if a, err := account(with(gap), untraced, cost); err == nil {
				t.Errorf("gap %+v ns/op with tracing cost %v passed: %+v", gap, cost, a)
			}
		}
	}
	if _, err := account(with(0)[:5], untraced[:5], 10); err == nil {
		t.Error("five chunks passed")
	}
}

// The untraced replay of a layer and its traced replay agree within the
// check's tolerance.
func TestReplayAccountsForItself(t *testing.T) {
	work := func(j int) {
		x := uint64(j)
		for range 2000 {
			x = x*6364136223846793005 + 1
		}
		sink = x
	}
	traced := &layerRun{name: "work", do: work}
	bare := &layerRun{name: "work", do: work, untraced: true}
	const n = 16 * replayChunk
	if err := replay([]*layerRun{traced, bare}, n); err != nil {
		t.Fatal(err)
	}
	var tr, un []float64
	for k, c := range bare.chunks {
		var sum int64
		for _, s := range traced.calls[k*replayChunk : (k+1)*replayChunk] {
			sum += s.end - s.start
		}
		tr = append(tr, float64(sum)/replayChunk)
		un = append(un, float64(c.end-c.start)/replayChunk)
	}
	if a, err := account(tr, un, spanCost()); err != nil {
		t.Errorf("%v (%+v)", err, a)
	}
}

var sink uint64

func TestBenchmarkJSONDeclaresTheReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared []struct{ Name, Unit string }
		code     map[string]string
	}{{"end_to_end", doc.EndToEnd, endToEndUnits}, {"per_layer", doc.PerLayer, perLayerUnits}} {
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !maps.Equal(got, c.code) {
			t.Errorf("BENCHMARK.json %s declares %v, the benchmark reports %v", c.name, got, c.code)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if _, err := specByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark has %d", names, len(specs))
	}
}
