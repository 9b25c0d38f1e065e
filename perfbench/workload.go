package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"talus"
	"talus/internal/hash"
	"talus/internal/workload"
)

// valueBytes is the size of every value the benchmark writes.
const valueBytes = 256

// ringOps is the length of a workload's op stream. The load cycles
// through it, so a run of any length replays one deterministic stream.
const ringOps = 1 << 20

// tenantDef declares one tenant: its name, its share of the ops, and
// the popularity pattern its keys are drawn from.
type tenantDef struct {
	name    string
	share   float64
	pattern func() (workload.Pattern, error)
}

// spec is one workload: the stack the program is configured with and
// the traffic the benchmark offers it.
type spec struct {
	name    string
	tenants []tenantDef
	putFrac float64

	// overHTTP runs the timed window against a talus-serve process; the
	// alternative drives an in-process talus.Store.
	overHTTP bool
	// rate, when positive, makes the timed window an open loop offering
	// that many ops per second; zero is a flat-out closed loop.
	rate float64
	// workers is the load concurrency: goroutines and, over HTTP,
	// keep-alive connections.
	workers int
	// procs, when positive, is GOMAXPROCS for the benchmark process and
	// for talus-serve; zero leaves Go's default, one P per CPU.
	procs int

	// The stack: talus-serve flags and their in-process equivalent.
	mb       float64
	maxBytes int64 // 0 = unbounded
	backend  bool  // zero-latency in-memory backend
	epoch    int64 // access-clock epoch budget; 0 = the program default
	// The warm-up: warmEpochs completed epoch steps on a stack whose
	// allocations have to converge, else warmOps ops.
	warmEpochs int
	warmOps    int
}

// Workloads. Sizes are fixed here so that every run, on every commit,
// offers the same traffic; only the seed varies the op stream.
var specs = []*spec{
	{
		name:    "serve-get",
		tenants: []tenantDef{{name: "web", share: 1, pattern: zipf(10000)}},
		putFrac: 0, overHTTP: true,
		// One connection between a client and a server held to one P
		// each: on the 2-vCPU host class, one runnable thread per vCPU.
		// With two connections and Go's default of two Ps a process, up
		// to four threads share the two vCPUs and the latencies measure
		// the scheduler: the GET p50 moved between 75 and 114 us from run
		// to run, against 56-60 us this way.
		workers: 1, procs: 1,
		// The working set fits: there is nothing to converge, and waiting
		// for the 1 s ticker would make set-up time measure the ticker.
		mb: 8, warmOps: 10000,
	},
	{
		name: "serve-mix",
		tenants: []tenantDef{
			{name: "cliff", share: 0.5, pattern: cliffseeker(3000)},
			{name: "zipf", share: 0.5, pattern: zipf(10000)},
		},
		putFrac: 0.3, overHTTP: true, rate: 4000,
		// Two connections: with one, a stall of a few milliseconds holds
		// back every request due behind it, and the GET p95 of one run in
		// four went from about 0.2 to 0.7 ms.
		workers: 2,
		mb:      0.5, maxBytes: 1 << 20, backend: true, epoch: 2048, warmEpochs: 24,
	},
	{
		name: "store-direct",
		tenants: []tenantDef{
			{name: "cliff", share: 0.5, pattern: cliffseeker(3000)},
			{name: "zipf", share: 0.5, pattern: zipf(10000)},
		},
		putFrac: 0.3, overHTTP: false, workers: 2,
		mb: 0.5, maxBytes: 1 << 20, backend: true, epoch: 2048, warmEpochs: 24,
	},
}

func zipf(keys int64) func() (workload.Pattern, error) {
	return func() (workload.Pattern, error) { return workload.NewZipf(keys, 0.9), nil }
}

func cliffseeker(target int64) func() (workload.Pattern, error) {
	return func() (workload.Pattern, error) { return workload.NewCliffSeeker(target) }
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v, all)", name, names)
}

// serverFlags is the talus-serve command line for the spec's stack.
func (s *spec) serverFlags() []string {
	var f []string
	if s.mb != 8 {
		f = append(f, "-mb", strconv.FormatFloat(s.mb, 'g', -1, 64))
	}
	if s.maxBytes > 0 {
		f = append(f, "-max-bytes", strconv.FormatInt(s.maxBytes, 10))
	}
	if s.backend {
		f = append(f, "-backend", "mem")
	}
	if s.epoch > 0 {
		f = append(f, "-epoch", strconv.FormatInt(s.epoch, 10))
	}
	return f
}

// serverEnv is what talus-serve's environment adds for the spec.
func (s *spec) serverEnv() []string {
	if s.procs > 0 {
		return []string{"GOMAXPROCS=" + strconv.Itoa(s.procs)}
	}
	return nil
}

// gomaxprocs is the benchmark process's GOMAXPROCS for the spec.
func (s *spec) gomaxprocs() int {
	if s.procs > 0 {
		return s.procs
	}
	return runtime.NumCPU()
}

// storeOptions builds the same stack in-process: the options
// talus-serve's run derives from serverFlags, with its defaults
// (8 shards, vantage/LRU, 32 ways, hill climbing, seed 42, a 1 s epoch
// ticker, 1 MiB values).
func (s *spec) storeOptions() ([]talus.Option, error) {
	hill, err := talus.AllocatorByName("hill")
	if err != nil {
		return nil, err
	}
	const seed = 42
	opts := []talus.Option{
		talus.WithCapacityMB(s.mb),
		talus.WithShards(8),
		talus.WithScheme("vantage"),
		talus.WithPolicy("LRU"),
		talus.WithAssoc(32),
		talus.WithSeed(seed),
		talus.WithAllocator(hill),
		talus.WithEpochInterval(epochInterval),
		talus.WithMaxValueBytes(1 << 20),
	}
	if s.maxBytes > 0 {
		opts = append(opts, talus.WithMaxBytes(s.maxBytes))
	}
	if s.backend {
		opts = append(opts, talus.WithBackend(talus.NewMemBackend(0)))
	}
	if s.epoch > 0 {
		opts = append(opts, talus.WithAdaptive(talus.AdaptiveConfig{
			EpochAccesses: s.epoch,
			EpochInterval: epochInterval,
			Allocator:     hill,
			Seed:          seed,
		}))
	}
	return opts, nil
}

// epochInterval is talus-serve's default -epoch-interval.
const epochInterval = time.Second

// tenant is a tenant's materialised key population.
type tenant struct {
	name   string
	keys   []string
	values [][]byte
	index  map[uint64]uint32 // pattern address → key index
}

// op is one request of the stream.
type op struct {
	tenant uint8
	put    bool
	key    uint32
}

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	spec    *spec
	tenants []*tenant
	ops     []op
}

// population returns every address pattern p can emit, so the preload
// can write each key exactly once.
func population(p workload.Pattern) ([]uint64, error) {
	var addrs []uint64
	switch p := p.(type) {
	case *workload.Zipf:
		for a := int64(0); a < p.Lines; a++ {
			addrs = append(addrs, uint64(a))
		}
	case *workload.CliffSeeker:
		// A CliffSeeker mixes a scan (component 0) with a zipf hotset of
		// Target/8 lines (component 1); Mix tags each address with its
		// component index in bit 40.
		hot := p.Target / 8
		scan := p.Footprint() - hot
		for a := int64(0); a < scan; a++ {
			addrs = append(addrs, uint64(a))
		}
		for a := int64(0); a < hot; a++ {
			addrs = append(addrs, uint64(a)|1<<40)
		}
	default:
		return nil, fmt.Errorf("no key population for pattern %T", p)
	}
	if int64(len(addrs)) != p.Footprint() {
		return nil, fmt.Errorf("pattern %T: enumerated %d keys, footprint %d", p, len(addrs), p.Footprint())
	}
	return addrs, nil
}

// valueOf is the value the benchmark writes under (tenant, key): a
// deterministic function of the seed and the key, so every GET body can
// be checked against the key it asked for.
func valueOf(seed uint64, tenant, key string) []byte {
	h := fnv64(tenant + "/" + key)
	rng := hash.NewSplitMix64(seed ^ h)
	v := make([]byte, valueBytes)
	for i := 0; i < len(v); i += 8 {
		x := rng.Next()
		for j := 0; j < 8 && i+j < len(v); j++ {
			v[i+j] = byte(x >> (8 * j))
		}
	}
	return v
}

// fnv64 is FNV-1a over s.
func fnv64(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// lineAddr is the store's key → line-address map (FNV-1a masked to 48
// bits, see internal/store), before the tenant's partition space is
// OR-ed in. The ledger checks it against the store's record hook.
func lineAddr(key string) uint64 { return fnv64(key) & (1<<48 - 1) }

// newInputs materialises a spec's tenants and its op stream for seed.
// The same seed gives the same bytes.
func newInputs(s *spec, seed uint64) (*inputs, error) {
	in := &inputs{spec: s}
	patterns := make([]workload.Pattern, len(s.tenants))
	for i, td := range s.tenants {
		p, err := td.pattern()
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", td.name, err)
		}
		addrs, err := population(p)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %w", td.name, err)
		}
		t := &tenant{name: td.name, index: make(map[uint64]uint32, len(addrs))}
		for _, a := range addrs {
			key := "k" + strconv.FormatUint(a, 16)
			t.index[a] = uint32(len(t.keys))
			t.keys = append(t.keys, key)
			t.values = append(t.values, valueOf(seed, td.name, key))
		}
		in.tenants = append(in.tenants, t)
		patterns[i] = p
	}
	rng := hash.NewSplitMix64(seed)
	in.ops = make([]op, ringOps)
	for i := range in.ops {
		ti := 0
		if len(s.tenants) > 1 {
			u := rng.Float64()
			for ti < len(s.tenants)-1 && u >= s.tenants[ti].share {
				u -= s.tenants[ti].share
				ti++
			}
		}
		a := patterns[ti].Next(rng)
		k, ok := in.tenants[ti].index[a]
		if !ok {
			return nil, fmt.Errorf("tenant %s: pattern emitted %#x outside its population", s.tenants[ti].name, a)
		}
		in.ops[i] = op{tenant: uint8(ti), put: s.putFrac > 0 && rng.Float64() < s.putFrac, key: k}
	}
	return in, nil
}

// keyCount is the total key population across tenants.
func (in *inputs) keyCount() int {
	n := 0
	for _, t := range in.tenants {
		n += len(t.keys)
	}
	return n
}
