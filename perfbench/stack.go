package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"talus"
)

// stack is the program under test: a talus-serve process reached over
// sockets, or a talus.Store called in-process.
type stack interface {
	// do performs op o for worker w and checks its outcome.
	do(w int, o op) error
	// counters returns the store's per-tenant counters and epoch count.
	counters() (counters, error)
	// peakRSSMB is the serving process's VmHWM.
	peakRSSMB() (float64, error)
	close() error
}

// counters is a snapshot of the store's own accounting.
type counters struct {
	epochs  int
	tenants []talus.TenantStats
}

func (c counters) sum(f func(talus.TenantStats) int64) int64 {
	var n int64
	for _, t := range c.tenants {
		n += f(t)
	}
	return n
}

// --- talus-serve over sockets ---------------------------------------

type httpStack struct {
	in   *inputs
	cmd  *exec.Cmd
	exit chan error
	base string
	hc   *http.Client
	urls [][]string // tenant → key → URL
	bufs []*bytes.Buffer

	closeOnce sync.Once
	closeErr  error
}

// startServer launches talus-serve with the spec's flags on a free
// loopback port and waits until it answers.
func startServer(bin string, in *inputs, conns int) (*httpStack, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	args := append([]string{"-addr", addr}, in.spec.serverFlags()...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), in.spec.serverEnv()...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &httpStack{
		in:   in,
		cmd:  cmd,
		exit: make(chan error, 1),
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns + 1, // one spare for counter reads
			DisableCompression:  true,
		}},
	}
	go func() { s.exit <- cmd.Wait() }()
	for _, t := range in.tenants {
		urls := make([]string, len(t.keys))
		for i, k := range t.keys {
			urls[i] = s.base + "/v1/cache/" + t.name + "/" + k
		}
		s.urls = append(s.urls, urls)
	}
	for i := 0; i < conns; i++ {
		s.bufs = append(s.bufs, bytes.NewBuffer(make([]byte, 0, 2*valueBytes)))
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := s.counters(); err == nil {
			return s, nil
		}
		select {
		case err := <-s.exit:
			return nil, fmt.Errorf("talus-serve exited during start-up: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("talus-serve did not answer within 20s")
		}
	}
}

func (s *httpStack) do(w int, o op) error {
	t := s.in.tenants[o.tenant]
	want := t.values[o.key]
	var req *http.Request
	var err error
	if o.put {
		req, err = http.NewRequest(http.MethodPut, s.urls[o.tenant][o.key], bytes.NewReader(want))
	} else {
		req, err = http.NewRequest(http.MethodGet, s.urls[o.tenant][o.key], nil)
	}
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %v", errTransport, err)
	}
	buf := s.bufs[w]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%w: reading body: %v", errTransport, err)
	}
	switch {
	case o.put && resp.StatusCode/100 != 2, !o.put && resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%w: %s %s/%s: %d", errStatus, req.Method, t.name, t.keys[o.key], resp.StatusCode)
	case !o.put && !bytes.Equal(buf.Bytes(), want):
		return fmt.Errorf("%w: GET %s/%s", errMismatch, t.name, t.keys[o.key])
	}
	return nil
}

func (s *httpStack) counters() (counters, error) {
	resp, err := s.hc.Get(s.base + "/v1/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return counters{}, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var body struct {
		Epochs  int                 `json:"epochs"`
		Tenants []talus.TenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return counters{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return counters{epochs: body.Epochs, tenants: body.Tenants}, nil
}

func (s *httpStack) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// close stops the server with SIGTERM, as an operator would, and waits
// for it to exit. Later calls return the first call's result.
func (s *httpStack) close() error {
	s.closeOnce.Do(func() {
		s.hc.CloseIdleConnections()
		if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
			s.closeErr = err
		}
		select {
		case err := <-s.exit:
			if s.closeErr == nil {
				s.closeErr = err
			}
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-s.exit
			s.closeErr = errors.New("talus-serve ignored SIGTERM for 15s")
		}
	})
	return s.closeErr
}

// --- talus.Store in-process -----------------------------------------

type directStack struct {
	in *inputs
	st *talus.Store

	closeOnce sync.Once
	closeErr  error
}

func newDirect(in *inputs) (*directStack, error) {
	opts, err := in.spec.storeOptions()
	if err != nil {
		return nil, err
	}
	st, err := talus.NewStore(opts...)
	if err != nil {
		return nil, err
	}
	return &directStack{in: in, st: st}, nil
}

func (d *directStack) do(_ int, o op) error {
	t := d.in.tenants[o.tenant]
	key := t.keys[o.key]
	if o.put {
		if _, err := d.st.SetTTL(t.name, key, t.values[o.key], 0); err != nil {
			return fmt.Errorf("%w: set %s/%s: %v", errOp, t.name, key, err)
		}
		return nil
	}
	v, _, err := d.st.Get(t.name, key)
	if err != nil {
		return fmt.Errorf("%w: get %s/%s: %v", errOp, t.name, key, err)
	}
	if !bytes.Equal(v, t.values[o.key]) {
		return fmt.Errorf("%w: get %s/%s", errMismatch, t.name, key)
	}
	return nil
}

func (d *directStack) counters() (counters, error) {
	return counters{epochs: d.st.Cache().Epochs(), tenants: d.st.StatsAll()}, nil
}

func (d *directStack) peakRSSMB() (float64, error) { return vmHWM(os.Getpid()) }

func (d *directStack) close() error {
	d.closeOnce.Do(func() { d.closeErr = d.st.Close() })
	return d.closeErr
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// --- set-up ---------------------------------------------------------

// preload writes every key exactly once, split over w workers, then
// checks the store's own counters against the population: a preload
// that missed or repeated a key fails the run before timing starts.
func preload(st stack, in *inputs, w int) error {
	var items []op
	for ti, t := range in.tenants {
		for k := range t.keys {
			items = append(items, op{tenant: uint8(ti), put: true, key: uint32(k)})
		}
	}
	before, err := st.counters()
	if err != nil {
		return err
	}
	r := pass{ops: items, do: st.do, workers: w, limit: len(items)}.run()
	if r.ops != len(items) || r.failed() > 0 {
		return fmt.Errorf("preload: %d of %d writes issued, failures: %s", r.ops, len(items), r.describe())
	}
	after, err := st.counters()
	if err != nil {
		return err
	}
	sets := after.sum(func(t talus.TenantStats) int64 { return t.Sets }) -
		before.sum(func(t talus.TenantStats) int64 { return t.Sets })
	if sets != int64(len(items)) {
		return fmt.Errorf("preload: store counted %d sets for %d keys", sets, len(items))
	}
	// Unbounded, the store keeps every value; bounded, the backend is
	// the system of record and must have taken every write.
	held := after.sum(func(t talus.TenantStats) int64 { return t.Keys })
	if in.spec.backend {
		held = after.sum(func(t talus.TenantStats) int64 { return t.BackendSets })
	}
	if held != int64(len(items)) {
		return fmt.Errorf("preload incomplete: store holds %d of %d keys", held, len(items))
	}
	return nil
}

// warm drives the op stream flat-out on a freshly built stack: until it
// has run spec.warmEpochs epoch steps, those during the preload
// included, so that timing starts on converged allocations rather than
// after a fixed wall time; or, on a stack with nothing to converge, for
// spec.warmOps ops. It returns the ring position after the warm-up.
func warm(st stack, in *inputs, start uint64) (uint64, error) {
	if in.spec.warmEpochs == 0 {
		r := pass{ops: in.ops, start: start, do: st.do, workers: in.spec.workers, limit: in.spec.warmOps}.run()
		if r.failed() > 0 {
			return 0, fmt.Errorf("warm-up: %s", r.describe())
		}
		return start + uint64(r.ops), nil
	}
	c, err := st.counters()
	if err != nil {
		return 0, err
	}
	target := in.spec.warmEpochs
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for c.epochs < target {
		if ctx.Err() != nil {
			return 0, fmt.Errorf("warm-up: %d of %d epochs after 90s", c.epochs, target)
		}
		r := pass{ops: in.ops, start: start, do: st.do, workers: in.spec.workers, dur: 50 * time.Millisecond}.run()
		start += uint64(r.ops)
		if r.failed() > 0 {
			return 0, fmt.Errorf("warm-up: %s", r.describe())
		}
		if c, err = st.counters(); err != nil {
			return 0, err
		}
	}
	return start, nil
}

// setUpOn builds the spec's stack — a talus-serve process when
// overHTTP, else in-process — preloads it and warms it up. It returns
// the stack, the ring position after the warm-up and the wall time all
// that took.
func setUpOn(in *inputs, serveBin string, overHTTP bool) (stack, uint64, time.Duration, error) {
	return setUp(in, serveBin, overHTTP, false)
}

// ledgerWarmOps is the warm-up of a stack set up alike: more accesses
// than the bounded stacks' warmEpochs epoch budgets.
const ledgerWarmOps = 40000

// setUpAlike builds the spec's stack like setUpOn, but preloads and
// warms it up with one worker, the warm-up for ledgerWarmOps ops, so
// that the stacks it builds for one seed all reach the same state: the
// ledger compares its stacks op for op.
func setUpAlike(in *inputs, serveBin string, overHTTP bool) (stack, error) {
	st, _, _, err := setUp(in, serveBin, overHTTP, true)
	return st, err
}

func setUp(in *inputs, serveBin string, overHTTP, alike bool) (stack, uint64, time.Duration, error) {
	t0 := time.Now()
	var st stack
	var err error
	if overHTTP {
		st, err = startServer(serveBin, in, in.spec.workers)
	} else {
		st, err = newDirect(in)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	w := in.spec.workers
	if alike {
		w = 1
	}
	if err := preload(st, in, w); err != nil {
		st.close()
		return nil, 0, 0, err
	}
	var pos uint64
	if alike {
		r := pass{ops: in.ops, do: st.do, workers: 1, limit: ledgerWarmOps}.run()
		if r.failed() > 0 {
			err = fmt.Errorf("warm-up: %s", r.describe())
		}
	} else {
		pos, err = warm(st, in, 0)
	}
	if err != nil {
		st.close()
		return nil, 0, 0, err
	}
	return st, pos, time.Since(t0), nil
}
