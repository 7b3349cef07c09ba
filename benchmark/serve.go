package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"deepum"
)

// servePlan is one serving workload: the distinct run specs its clients
// draw from, the traffic shape, and how to start the server.
type servePlan struct {
	pool []deepum.RunSpec
	// pick is the spec index of a client's n-th fresh run.
	pick func(n int) int
	// retryShare is the share of submits that replay an earlier key.
	retryShare float64
	// window is how many runs each client keeps in flight.
	window    int
	pollEvery time.Duration
	// serverArgs are deepum-serve's flags for a server rooted at dir.
	serverArgs func(dir string) []string
	// inproc builds the same backend in process with one feature changed.
	inproc func(dir string, v variant, runner deepum.Runner) (backend, func(), error)
	// passes are the in-process variants the traced run compares.
	passes []variant
}

const (
	// clients is the closed-loop client count: one per CPU of the machine
	// the benchmark is sized for, each with its own connection.
	clients = 2
	// oversubBudget is each shard's simulated GPU budget on serve-oversub:
	// below two concurrent runs' demand, so the arbiter must act.
	oversubBudget = 1 << 30
)

func servePlanFor(workload string, seed int64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	switch workload {
	case "serve-admit":
		// Tiny DeepUM runs (~2 ms of engine time): admission, the fsync'd
		// journal, HTTP and the supervisor do most of the work. They use the
		// learned policy, whose warm state is 2 KiB: the server keeps every
		// finished run's final checkpoint in memory, and a correlation
		// checkpoint (~0.7 MiB here) at this run rate would grow the server
		// by gigabytes within one measured run.
		var pool []deepum.RunSpec
		for i := 0; i < 4; i++ {
			pool = append(pool, deepum.RunSpec{Model: "mobilenet", Batch: 64, Scale: 64, Policy: "learned",
				Iterations: 1, Warmup: 1, Seed: 1 + rng.Int63n(1<<20)})
		}
		return servePlan{
			pool:       pool,
			pick:       func(n int) int { return n % len(pool) },
			retryShare: 0.2,
			window:     1,
			pollEvery:  time.Millisecond,
			serverArgs: func(dir string) []string {
				return []string{"-workers", "2", "-queue", "64",
					"-journal", filepath.Join(dir, "runs.journal"), "-store", filepath.Join(dir, "ck.store")}
			},
			inproc: admitBackend,
			passes: []variant{{name: "all"}, {name: "nosync", noSync: true}, {name: "nostore", noStore: true},
				{name: "noop", noopRunner: true}},
		}
	default:
		// Checkpointing runs that oversubscribe each shard's budget: the
		// federation ring, store writes and the arbiter all run. DLRM runs
		// take distinct seeds, so their checkpoints do not all dedup. The
		// runs are at scale 64 (bert-base still oversubscribes the
		// simulated GPU there) and a quarter of the submits replay a key:
		// on two CPUs busy with simulation, submit latency has a long
		// scheduling tail, and its p90 needs several hundred samples per
		// run to repeat from run to run.
		pool := []deepum.RunSpec{{Model: "bert-base", Batch: 32, Scale: 64, Iterations: 4, Warmup: 1,
			CheckpointEvery: 1, Seed: 1 + rng.Int63n(1<<20)}}
		for i := 0; i < 8; i++ {
			pool = append(pool, deepum.RunSpec{Model: "dlrm", Batch: 32768, Scale: 64, Iterations: 4, Warmup: 1,
				CheckpointEvery: 1, Seed: 1 + rng.Int63n(1<<20)})
		}
		return servePlan{
			pool: pool,
			pick: func(n int) int {
				// Every fourth fresh run is a DLRM run, cycling through
				// its seeds: a fixed mix keeps each run's load the same.
				if n%4 != 3 {
					return 0
				}
				return 1 + (n/4)%(len(pool)-1)
			},
			retryShare: 0.25,
			window:     3,
			pollEvery:  5 * time.Millisecond,
			serverArgs: func(dir string) []string {
				return []string{"-shards", "2", "-workers", "2", "-queue", "64", "-journal-dir", dir,
					"-store", filepath.Join(dir, "ck.store"), "-oversubscribe", "-gpu-budget", strconv.Itoa(oversubBudget)}
			},
			inproc: oversubBackend,
			passes: []variant{{name: "all"}, {name: "nosync", noSync: true}, {name: "nostore", noStore: true},
				{name: "noarbiter", noArbiter: true}, {name: "single", single: true}, {name: "noop", noopRunner: true}},
		}
	}
}

// weights is each spec's share of the fresh runs the clients submit.
func (p servePlan) weights() []float64 {
	const n = 1 << 12
	w := make([]float64, len(p.pool))
	for i := 0; i < n; i++ {
		w[p.pick(i)] += 1.0 / n
	}
	return w
}

// --- backends ---

// backend is what a client drives: the server over HTTP, or the same
// supervisor or federation in process.
type backend interface {
	submit(spec deepum.RunSpec, key string) (id uint64, dedup bool, err error)
	get(id uint64) (deepum.RunInfo, error)
}

type httpBackend struct {
	base string
	c    *http.Client
}

func newHTTPBackend(base string) *httpBackend {
	return &httpBackend{base: base, c: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (b *httpBackend) do(req *http.Request, out any) (int, error) {
	resp, err := b.c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, json.Unmarshal(body, out)
}

func (b *httpBackend) submit(spec deepum.RunSpec, key string) (uint64, bool, error) {
	data, err := json.Marshal(spec)
	if err != nil {
		return 0, false, err
	}
	req, err := http.NewRequest(http.MethodPost, b.base+"/runs", bytes.NewReader(data))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	var out struct {
		ID           uint64 `json:"id"`
		Deduplicated bool   `json:"deduplicated"`
	}
	if _, err := b.do(req, &out); err != nil {
		return 0, false, err
	}
	return out.ID, out.Deduplicated, nil
}

func (b *httpBackend) get(id uint64) (deepum.RunInfo, error) {
	req, err := http.NewRequest(http.MethodGet, b.base+"/runs/"+strconv.FormatUint(id, 10), nil)
	if err != nil {
		return deepum.RunInfo{}, err
	}
	var info deepum.RunInfo
	_, err = b.do(req, &info)
	return info, err
}

type supervisorBackend struct {
	s  *deepum.Supervisor
	st *deepum.CheckpointStore // nil without a store
}

func (b supervisorBackend) submit(spec deepum.RunSpec, key string) (uint64, bool, error) {
	return b.s.SubmitWithOptions(0, spec, deepum.SubmitOptions{Key: key})
}
func (b supervisorBackend) get(id uint64) (deepum.RunInfo, error) { return b.s.Get(id) }

type federationBackend struct{ f *deepum.Federation }

func (b federationBackend) submit(spec deepum.RunSpec, key string) (uint64, bool, error) {
	return b.f.SubmitWithOptions(spec, deepum.SubmitOptions{Key: key})
}
func (b federationBackend) get(id uint64) (deepum.RunInfo, error) { return b.f.Get(id) }

// variant turns one feature of the serving stack off for an in-process
// pass (Chien et al.: enable features one at a time to isolate their cost).
type variant struct {
	name       string
	noSync     bool // journal appends skip fsync
	noStore    bool // checkpoints inline in the journal, no store
	noArbiter  bool // no GPU budget, so no oversubscription arbiter
	single     bool // one supervisor with every worker instead of the federation
	noopRunner bool // runs return the oracle's outcome without simulating
}

// admitBackend is serve-admit's server in process: one supervisor with a
// journal and a two-replica store.
func admitBackend(dir string, v variant, runner deepum.Runner) (backend, func(), error) {
	return supervisorWith(dir, deepum.SupervisorConfig{Workers: 2, QueueDepth: 64, Runner: runner,
		JournalPath: filepath.Join(dir, "runs.journal"), JournalNoSync: v.noSync}, v)
}

// oversubBackend is serve-oversub's server in process: a two-shard
// federation sharing one store, each shard oversubscribed.
func oversubBackend(dir string, v variant, runner deepum.Runner) (backend, func(), error) {
	cfg := deepum.SupervisorConfig{Workers: 2, QueueDepth: 64, Runner: runner, JournalNoSync: v.noSync}
	if !v.noArbiter {
		cfg.GPUMemoryBudget = oversubBudget
		cfg.Oversubscribe = true
	}
	if v.single {
		cfg.Workers *= 2
		cfg.GPUMemoryBudget *= 2
		cfg.JournalPath = filepath.Join(dir, "runs.journal")
		return supervisorWith(dir, cfg, v)
	}
	opts := deepum.FederationOptions{Shards: 2, Supervisor: cfg, JournalDir: dir, StoreReplicas: 2}
	if !v.noStore {
		opts.StorePath = filepath.Join(dir, "ck.store")
	}
	fed, err := deepum.NewFederation(opts)
	if err != nil {
		return nil, nil, err
	}
	return federationBackend{fed}, func() { fed.Drain(context.Background()) }, nil
}

// supervisorWith builds a single supervisor from cfg plus the variant's
// store setting.
func supervisorWith(dir string, cfg deepum.SupervisorConfig, v variant) (backend, func(), error) {
	var st *deepum.CheckpointStore
	if !v.noStore {
		var err error
		st, _, err = deepum.OpenCheckpointStore(filepath.Join(dir, "ck.store"), deepum.CheckpointStoreOptions{Replicas: 2})
		if err != nil {
			return nil, nil, err
		}
		cfg.Checkpoints = st
	}
	sup, err := deepum.NewSupervisor(cfg)
	if err != nil {
		if st != nil {
			st.Close()
		}
		return nil, nil, err
	}
	return supervisorBackend{sup, st}, func() {
		sup.Drain(context.Background())
		if st != nil {
			st.Close()
		}
	}, nil
}

// --- the oracle ---

// oracleEntry is what a spec must produce, computed in process by the same
// runner the server uses, with the spec run alone.
type oracleEntry struct {
	out   deepum.RunOutcome
	um    deepum.RunOutcome
	hosts []float64 // seconds per DeepUM runner call
}

// oracleSpend is the time the oracle spends repeating each spec, so
// that train_host_s of a serve workload is a median of many calls.
const oracleSpend = time.Second

// buildOracle runs every spec of the pool alone, repeatedly (each repeat
// must agree), and once under UM for the speedup.
func buildOracle(c *ops, tr *tracer, pool []deepum.RunSpec) ([]oracleEntry, error) {
	runner := deepum.TrainRunner()
	run := func(spec deepum.RunSpec) (deepum.RunOutcome, time.Duration, error) {
		t0 := time.Now()
		out, err := runner.Run(context.Background(), spec, nil, func([]byte) {})
		d := time.Since(t0)
		tr.add("oracle "+spec.Model, "oracle", t0, t0.Add(d), 0, 0)
		return out, d, err
	}
	var entries []oracleEntry
	for _, spec := range pool {
		var e oracleEntry
		var spent time.Duration
		for rep := 0; rep < 1000 && (rep < 3 || spent < oracleSpend); rep++ {
			out, d, err := run(spec)
			if err != nil {
				return nil, fmt.Errorf("oracle %s: %w", spec.Model, err)
			}
			spent += d
			e.hosts = append(e.hosts, d.Seconds())
			c.try()
			if out.Status != deepum.StatusCompleted.String() {
				c.fail("oracle %s seed %d ended %s", spec.Model, spec.Seed, out.Status)
			} else if rep > 0 && (out.AccessChecksum != e.out.AccessChecksum || out.IterationTime != e.out.IterationTime) {
				c.fail("oracle %s seed %d is not deterministic", spec.Model, spec.Seed)
			}
			if rep == 0 {
				e.out = out
			}
		}
		umSpec := spec
		umSpec.System = string(deepum.SystemUM)
		umSpec.Policy = ""
		umSpec.CheckpointEvery = 0
		out, _, err := run(umSpec)
		if err != nil {
			return nil, fmt.Errorf("oracle %s under UM: %w", spec.Model, err)
		}
		e.um = out
		entries = append(entries, e)
	}
	return entries, nil
}

// noopRunner answers each run with its oracle outcome without simulating:
// the pass that isolates what the engine costs a served run.
func noopRunner(pool []deepum.RunSpec, oracle []oracleEntry) deepum.Runner {
	return deepum.RunnerFunc(func(_ context.Context, spec deepum.RunSpec, _ []byte, _ func([]byte)) (deepum.RunOutcome, error) {
		spec.MemoryDemand = 0 // filled at admission
		for i, p := range pool {
			if p == spec {
				return oracle[i].out, nil
			}
		}
		return deepum.RunOutcome{}, errors.New("spec not in the pool")
	})
}

// --- the load ---

// runStamps is what one finished run leaves for the supervisor layer.
type runStamps struct {
	submit time.Duration
	info   deepum.RunInfo
	seen   time.Time
}

// loadStats is one load phase as the clients saw it.
type loadStats struct {
	submits   []float64 // ms, every POST (fresh and retried)
	runs      []float64 // ms, fresh runs from POST to terminal state seen
	stamps    []runStamps
	completed int
	polls     int
	elapsed   time.Duration
}

// drive runs the closed-loop clients against fresh backends for d, then
// lets the runs in flight finish. Each client's choices come from its own
// seeded stream: spec, key and whether to replay an earlier key.
func drive(plan servePlan, oracle []oracleEntry, newBackend func() backend, c *ops, tr *tracer, seed int64, d time.Duration) loadStats {
	var mu sync.Mutex
	var all loadStats
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			st := client(plan, oracle, newBackend(), c, tr, seed, cl, deadline)
			mu.Lock()
			all.submits = append(all.submits, st.submits...)
			all.runs = append(all.runs, st.runs...)
			all.stamps = append(all.stamps, st.stamps...)
			all.completed += st.completed
			all.polls += st.polls
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	all.elapsed = time.Since(start)
	return all
}

func client(plan servePlan, oracle []oracleEntry, be backend, c *ops, tr *tracer, seed int64, cl int, deadline time.Time) loadStats {
	type flight struct {
		id     uint64
		spec   int
		key    string
		t0     time.Time
		submit time.Duration
	}
	type finished struct {
		id   uint64
		spec int
		key  string
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(cl)))
	tid := int64(10 + cl)
	// Span names say which path a request took.
	submitName, getName, cat := "POST /runs", "GET /runs/{id}", "http"
	if _, ok := be.(*httpBackend); !ok {
		submitName, getName, cat = "SubmitWithOptions", "Get", "supervisor"
	}
	var st loadStats
	var inflight []flight
	var done []finished
	n := 0
	for {
		for time.Now().Before(deadline) && len(inflight) < plan.window {
			if len(done) > 0 && rng.Float64() < plan.retryShare {
				f := done[rng.Intn(len(done))]
				c.try()
				t0 := time.Now()
				id, dedup, err := be.submit(plan.pool[f.spec], f.key)
				tr.add(submitName+" (retry)", cat, t0, time.Now(), 0, tid)
				st.submits = append(st.submits, ms(time.Since(t0)))
				switch {
				case err != nil:
					c.fail("retry of run %d: %v", f.id, err)
				case !dedup || id != f.id:
					c.fail("retry with key %s returned run %d (dedup %v), want run %d", f.key, id, dedup, f.id)
				}
				continue
			}
			spec := plan.pick(n)
			key := fmt.Sprintf("bench-%d-%d-%d", seed, cl, n)
			n++
			c.try()
			t0 := time.Now()
			id, dedup, err := be.submit(plan.pool[spec], key)
			t1 := time.Now()
			tr.add(submitName, cat, t0, t1, 0, tid)
			st.submits = append(st.submits, ms(t1.Sub(t0)))
			if err != nil {
				c.fail("submit: %v", err)
				continue
			}
			if dedup {
				c.fail("fresh key %s resolved to existing run %d", key, id)
				continue
			}
			inflight = append(inflight, flight{id: id, spec: spec, key: key, t0: t0, submit: t1.Sub(t0)})
		}
		if len(inflight) == 0 {
			return st
		}
		time.Sleep(plan.pollEvery)
		kept := inflight[:0]
		for _, f := range inflight {
			t0 := time.Now()
			info, err := be.get(f.id)
			seen := time.Now()
			tr.add(getName, cat, t0, seen, 0, tid)
			st.polls++
			if err != nil {
				c.fail("poll run %d: %v", f.id, err)
				continue
			}
			if !info.State.Terminal() {
				kept = append(kept, f)
				continue
			}
			tr.add("run "+plan.pool[f.spec].Model, "client", f.t0, seen, 0, tid+100)
			want := oracle[f.spec].out
			switch {
			case info.State != deepum.RunCompleted || info.Outcome == nil:
				c.fail("run %d ended %s: %s", f.id, info.State, info.Reason)
			case info.Suspends == 0 && info.Outcome.AccessChecksum != want.AccessChecksum:
				// A run the arbiter suspended restarts its checkpoint chunks
				// from warm state on resume, so its folded checksum differs
				// from a solo run by construction; only unsuspended runs must
				// match the oracle bit for bit.
				c.fail("run %d (%s seed %d, attempts %d, suspends %d) access checksum %x, solo oracle %x", f.id,
					info.Spec.Model, info.Spec.Seed, info.Attempts, info.Suspends, info.Outcome.AccessChecksum, want.AccessChecksum)
			default:
				st.completed++
				st.runs = append(st.runs, ms(seen.Sub(f.t0)))
				st.stamps = append(st.stamps, runStamps{submit: f.submit, info: info, seen: seen})
				done = append(done, finished{id: f.id, spec: f.spec, key: f.key})
			}
		}
		inflight = kept
	}
}

// --- the server process ---

type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// startServer starts deepum-serve on an empty directory and returns once
// GET /readyz answers 200, with the time that took.
func startServer(bin string, plan servePlan, dir string) (*serverProc, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:" + port, "-drain-timeout", "20s"}, plan.serverArgs(dir)...)
	t0 := time.Now()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &serverProc{cmd: cmd, base: "http://127.0.0.1:" + port, exited: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(s.exited) }() // the exit status is read through s.exited
	probe := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 30*time.Second {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("deepum-serve exited before ready; log in %s", logf.Name())
		default:
		}
		if resp, err := probe.Get(s.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("deepum-serve not ready after 30s")
}

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process needs no signal
	select {
	case <-s.exited:
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// scrape sums every series of each named counter on GET /metrics.
func (s *serverProc) scrape(names ...string) (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		for _, n := range names {
			if name == n {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return nil, err
				}
				out[n] += v
			}
		}
	}
	return out, sc.Err()
}

func fileSizes(paths ...string) int64 {
	var total int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// --- the workload ---

func runServe(o options, c *ops, tr *tracer) (map[string]metric, error) {
	plan := servePlanFor(o.workload, o.seed)
	oracle, err := buildOracle(c, tr, plan.pool)
	if err != nil {
		return nil, err
	}

	// Set-up: server start to ready on an empty journal directory, several
	// times; the last server carries the load.
	reps := setupReps
	if o.traced {
		reps = 1
	}
	var setups []float64
	var srv *serverProc
	var srvDir string
	for i := 0; i < reps; i++ {
		srvDir = filepath.Join(o.work, fmt.Sprintf("server-%d", i))
		s, d, err := startServer(o.serveBin, plan, srvDir)
		if err != nil {
			return nil, err
		}
		tr.add("deepum-serve start to ready", "setup", time.Now().Add(-d), time.Now(), 0, 0)
		setups = append(setups, d.Seconds())
		if i < reps-1 {
			s.stop()
			continue
		}
		srv = s
	}
	defer srv.stop()

	d := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		d = phaseLength(o.seconds)
	}
	ld := drive(plan, oracle, func() backend { return newHTTPBackend(srv.base) }, c, tr, o.seed, d)
	if ld.completed == 0 {
		return nil, fmt.Errorf("no run completed")
	}
	rss, err := peakRSSMiB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	if o.traced {
		return serveLayers(o, c, tr, plan, oracle, srv, srvDir, ld)
	}

	// The simulated metrics and the host time per run are weighted by how
	// often the clients submit each spec.
	var iter, faults, umIter, host float64
	for i, w := range plan.weights() {
		e := oracle[i]
		iter += w * ms(e.out.IterationTime)
		faults += w * float64(e.out.FaultsPerIteration)
		umIter += w * ms(e.um.IterationTime)
		host += w * median(e.hosts)
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"train_host_s":        {host, "s"},
		"peak_rss_mb":         {rss, "MiB"},
		"sim_iter_ms":         {iter, "sim_ms"},
		"sim_faults_per_iter": {faults, "pages"},
		"sim_speedup_vs_um":   {umIter / iter, "x"},
		"submit_ms_p50":       {quantile(ld.submits, 0.5), "ms"},
		"submit_ms_p90":       {quantile(ld.submits, 0.9), "ms"},
		"run_ms_p50":          {quantile(ld.runs, 0.5), "ms"},
		"run_ms_p90":          {quantile(ld.runs, 0.9), "ms"},
		"runs_per_s":          {float64(ld.completed) / ld.elapsed.Seconds(), "1/s"},
		"success_rate":        {c.successRate(), "ratio"},
	}, nil
}

// phaseLength is how long each phase of a traced serve run lasts: the HTTP
// phase and every in-process pass share the run's measured time.
func phaseLength(seconds float64) time.Duration {
	d := time.Duration(seconds / 4 * float64(time.Second))
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	return d
}
