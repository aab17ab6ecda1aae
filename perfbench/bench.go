package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"globaldb"
	"globaldb/internal/ts"
)

// numClients is the closed-loop client count of every workload: each client
// sends its next operation only after the previous one has finished.
const numClients = 2

// workload is one traffic mix over one loaded cluster.
type workload interface {
	// setup opens the cluster, creates and loads the tables, and waits
	// until the RCP covers the load.
	setup(ctx context.Context) error
	// bind gives each client its sessions and home; it runs once, on the
	// cluster that is measured.
	bind(ctx context.Context, clients []*client) error
	// next draws the client's next operation from its generator. The
	// returned attempt is retried on abort with the same inputs.
	next(c *client) (class string, attempt func() error)
	// check verifies the cluster's final state after the run.
	check(ctx context.Context) error
	// latencies maps the workload's lat1..lat4 slots and its named
	// per-class metrics onto the untraced run's samples.
	latencies(r *phaseResult) []namedMetric
	// hotKeys lists storage keys the workload updates most, with the
	// store of each key's primary, for the version-chain metric.
	hotKeys() []hotKey
	db() *globaldb.DB
	close()
}

type hotKey struct {
	shard int
	key   []byte
}

// client is one closed-loop client goroutine with its own generator,
// tracer and counters (no shared state on the hot path).
type client struct {
	id  int
	ctx context.Context
	rng *rand.Rand
	tr  *tracer // nil in the untraced run

	start      time.Time // when the current phase began
	lat        map[string]*samples
	extra      map[string]*samples // non-operation samples, e.g. staleness
	count      map[string]float64  // bench-side counters, e.g. rows returned
	attempted  int64
	failed     int64
	checkFails int64 // failed operations that failed a check
	attempts   int64
	errs       []string
	classNames map[string]string // class -> root span name

	// Workload-specific bindings.
	sess    *globaldb.Session
	home    int64
	private any
}

func newClient(ctx context.Context, id int, seed int64) *client {
	return &client{
		id:         id,
		ctx:        ctx,
		rng:        rand.New(rand.NewSource(seed*7919 + int64(id)*104729 + 1)),
		classNames: map[string]string{},
	}
}

func (c *client) reset(tr *tracer, start time.Time) {
	c.tr = tr
	c.start = start
	c.lat = map[string]*samples{}
	c.extra = map[string]*samples{}
	c.count = map[string]float64{}
	c.attempted, c.failed, c.checkFails, c.attempts = 0, 0, 0, 0
	c.errs = nil
}

// since is the time since the phase began, in seconds.
func (c *client) since() float64 { return time.Since(c.start).Seconds() }

func (c *client) sample(name string, d time.Duration) {
	s := c.extra[name]
	if s == nil {
		s = &samples{}
		c.extra[name] = s
	}
	s.add(d, c.since())
}

func (c *client) sleep(d time.Duration) {
	sp := c.tr.begin("client.backoff")
	time.Sleep(d)
	c.tr.end(sp)
}

// loop runs operations until the deadline. An operation's latency runs
// from its first attempt to its final outcome, retries included.
func (c *client) loop(w workload, deadline time.Time) {
	for time.Now().Before(deadline) {
		class, attempt := w.next(c)
		root, ok := c.classNames[class]
		if !ok {
			root = "client." + class
			c.classNames[class] = root
		}
		s := c.lat[class]
		if s == nil {
			s = &samples{}
			c.lat[class] = s
		}
		start := time.Now()
		sp := c.tr.beginOp(root)
		n, err := defaultRetry.run(c.rng, c.sleep, attempt)
		c.tr.end(sp)
		d := time.Since(start)
		c.attempted++
		c.attempts += int64(n)
		if err != nil {
			c.failed++
			if isCheck(err) {
				c.checkFails++
			}
			s.addFailed(c.since())
			if len(c.errs) < 5 {
				c.errs = append(c.errs, fmt.Sprintf("%s: %v", class, err))
			}
			continue
		}
		s.add(d, c.since())
	}
}

// phaseResult is what one measured window produced.
type phaseResult struct {
	elapsed    time.Duration
	byClass    map[string]*samples
	all        samples
	extra      map[string]*samples
	count      map[string]float64
	attempted  int64
	failed     int64
	checkFails int64
	attempts   int64
	errs       []string
	cpu        time.Duration
	cpuAt      []time.Duration // process CPU at each window boundary
	hostAt     []hostCPU       // machine CPU counters at each window boundary
	width      float64         // window length, seconds
	quietIdx   []int           // see quiet
	allocs     uint64          // bytes allocated
	before     counters
	after      counters
	spans      []span
	lagRecs    []float64 // sampled Σ shipper lag, records
	rcpLagMs   []float64 // sampled now − RCP
}

func (r *phaseResult) completed() int64 { return r.attempted - r.failed }

// class merges the samples of the named classes.
func (r *phaseResult) class(names ...string) *samples {
	out := &samples{}
	for _, n := range names {
		if s := r.byClass[n]; s != nil {
			out.merge(s)
		}
	}
	return out
}

// windows is how many equal windows a measured phase is cut into, by
// operation completion time, and quietWindows how many of them the
// end-to-end metrics are computed over: those in which the hypervisor stole
// the least CPU from this machine. On a shared host, other tenants take CPU
// in bursts that slow every operation in them; the quiet quarter leaves
// such bursts out unless they cover most of the run. The choice
// rests on the host's steal counter, not on the program's own speed, so a
// change that slows the program in some windows still shows.
const (
	windows      = 40
	quietWindows = windows / 4
)

// bounds returns window i as [lo, hi) seconds of completion time; the last
// window also takes the operations that finish after the deadline.
func (r *phaseResult) bounds(i int) (lo, hi float64) {
	lo, hi = float64(i)*r.width, float64(i+1)*r.width
	if i == windows-1 {
		hi = math.Inf(1)
	}
	return lo, hi
}

// duration is window i's length in seconds; the last ends when the last
// operation does.
func (r *phaseResult) duration(i int) float64 {
	if i == windows-1 {
		return r.elapsed.Seconds() - float64(i)*r.width
	}
	return r.width
}

// stealPct is the share of the machine's CPU time the hypervisor stole
// during window i, or NaN where the host does not report it.
func (r *phaseResult) stealPct(i int) float64 {
	a, b := r.hostAt[i], r.hostAt[i+1]
	if b.total <= a.total {
		return math.NaN()
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// quiet returns the indexes of the quietWindows windows with the least
// steal, computed once; all windows where the host reports no steal
// counter.
func (r *phaseResult) quiet() []int {
	if r.quietIdx != nil {
		return r.quietIdx
	}
	idx := make([]int, windows)
	steal := make([]float64, windows)
	known := true
	for i := range idx {
		idx[i], steal[i] = i, r.stealPct(i)
		known = known && !math.IsNaN(steal[i])
	}
	if known {
		sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
		idx = idx[:quietWindows]
	}
	r.quietIdx = idx
	return idx
}

// quietSamples pools the samples of s that completed in the quiet windows.
func (r *phaseResult) quietSamples(s *samples) *samples {
	out := &samples{}
	for _, i := range r.quiet() {
		out.merge(s.window(r.bounds(i)))
	}
	return out
}

// quietRate is completed operations per second over the quiet windows.
func (r *phaseResult) quietRate() float64 {
	n, secs := 0, 0.0
	for _, i := range r.quiet() {
		lo, hi := r.bounds(i)
		n += completedIn(&r.all, lo, hi)
		secs += r.duration(i)
	}
	return ratio(float64(n), secs)
}

// quietCPU is CPU time per completed operation over the quiet windows, in
// milliseconds.
func (r *phaseResult) quietCPU() float64 {
	var cpu time.Duration
	n := 0
	for _, i := range r.quiet() {
		lo, hi := r.bounds(i)
		n += completedIn(&r.all, lo, hi)
		cpu += r.cpuAt[i+1] - r.cpuAt[i]
	}
	return ratio(float64(cpu)/1e6, float64(n))
}

// completedIn counts the operations that completed without failing in
// [lo, hi) seconds.
func completedIn(s *samples, lo, hi float64) int {
	n := 0
	for i, at := range s.at {
		if at >= lo && at < hi && !math.IsInf(s.vals[i], 1) {
			n++
		}
	}
	return n
}

// runPhase runs every client for dur and collects the window's numbers.
// A traced phase also records spans and samples replication lag.
func runPhase(w workload, clients []*client, dur time.Duration, traced bool) *phaseResult {
	r := &phaseResult{byClass: map[string]*samples{}, extra: map[string]*samples{}, count: map[string]float64{},
		width: dur.Seconds() / windows, cpuAt: make([]time.Duration, windows+1), hostAt: make([]hostCPU, windows+1)}

	stopSampler := func() {}
	if traced {
		stopSampler = sampleLag(w.db(), &r.lagRecs, &r.rcpLagMs)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r.before = snapshot(w.db())
	start := time.Now()
	r.cpuAt[0], r.hostAt[0] = cpuTime(), readHostCPU()
	for _, c := range clients {
		var tr *tracer
		if traced {
			tr = newTracer(start, c.id)
		}
		c.reset(tr, start)
	}
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(w, deadline)
		}(c)
	}
	// Read the CPU clock at the inner window boundaries.
	for i := 1; i < windows; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(float64(i) * r.width * float64(time.Second)))))
		r.cpuAt[i], r.hostAt[i] = cpuTime(), readHostCPU()
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.cpuAt[windows], r.hostAt[windows] = cpuTime(), readHostCPU()
	r.cpu = r.cpuAt[windows] - r.cpuAt[0]
	r.after = snapshot(w.db())
	runtime.ReadMemStats(&ms1)
	stopSampler()
	r.allocs = ms1.TotalAlloc - ms0.TotalAlloc

	for _, c := range clients {
		for k, s := range c.lat {
			if r.byClass[k] == nil {
				r.byClass[k] = &samples{}
			}
			r.byClass[k].merge(s)
			r.all.merge(s)
		}
		for k, s := range c.extra {
			if r.extra[k] == nil {
				r.extra[k] = &samples{}
			}
			r.extra[k].merge(s)
		}
		for k, v := range c.count {
			r.count[k] += v
		}
		r.attempted += c.attempted
		r.failed += c.failed
		r.checkFails += c.checkFails
		r.attempts += c.attempts
		r.errs = append(r.errs, c.errs...)
		if c.tr != nil {
			r.spans = append(r.spans, c.tr.spans...)
		}
	}
	return r
}

// counters is a snapshot of the cluster's own cumulative counters, read
// from the objects of this cluster (not process-wide registries, which
// also count earlier set-ups in the same process).
type counters struct {
	commits, aborts, fallbacks int64
	gtmRequests                int64
	fsyncs, groups, grouped    int64
	redoBytes                  int64
	wireBytes, batches         int64
	rowsScanned, readerWaits   int64
	keys                       int64
}

func snapshot(db *globaldb.DB) counters {
	var k counters
	cl := db.Cluster()
	for _, cn := range cl.CNs() {
		st := cn.Stats()
		k.commits += st.Commits
		k.aborts += st.Aborts
		k.fallbacks += st.RORFallbacks
	}
	g := cl.GTMServer.Stats()
	k.gtmRequests = g.IssuedGTM + g.IssuedDual
	for shard, p := range cl.Primaries() {
		if wal := p.WAL(); wal != nil {
			gs := wal.GroupStats()
			k.fsyncs += gs.Fsyncs
			k.groups += gs.Groups
			k.grouped += gs.GroupedCommits
		}
		k.redoBytes += p.Log().BytesAppended()
		for _, sh := range p.Repl().Shippers() {
			st := sh.Stats()
			k.wireBytes += st.WireBytes
			k.batches += st.Batches
		}
		ms := p.Store().Stats()
		k.rowsScanned += ms.RowsScanned
		k.readerWaits += ms.ReaderWaits
		k.keys += int64(ms.Keys)
		for _, rep := range cl.Replicas(shard) {
			rs := rep.Applier().Store().Stats()
			k.rowsScanned += rs.RowsScanned
			k.readerWaits += rs.ReaderWaits
		}
	}
	return k
}

// sampleLag samples replication lag (records behind, summed over every
// shipper) and RCP lag every few milliseconds until the returned stop is
// called; stop waits for the sampler to exit.
func sampleLag(db *globaldb.DB, lagRecs, rcpLagMs *[]float64) (stop func()) {
	cl := db.Cluster()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
			}
			var lag uint64
			for _, p := range cl.Primaries() {
				for _, sh := range p.Repl().Shippers() {
					lag += sh.Lag()
				}
			}
			*lagRecs = append(*lagRecs, float64(lag))
			*rcpLagMs = append(*rcpLagMs, float64(time.Since(cl.Collector.RCP().Time()))/1e6)
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// hostCPU holds the machine's cumulative CPU time and the part of it the
// hypervisor stole, in clock ticks, from the first line of /proc/stat.
type hostCPU struct{ steal, total uint64 }

// readHostCPU returns zero counters where /proc/stat is unavailable.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return hostCPU{}
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// idleCPUPct measures the CPU an opened, empty cluster burns on its own
// (clock sync, RCP polling, heartbeats), in percent of one core.
func idleCPUPct(window time.Duration) float64 {
	c0, t0 := cpuTime(), time.Now()
	time.Sleep(window)
	return 100 * float64(cpuTime()-c0) / float64(time.Since(t0))
}

// waitRCP waits until the RCP reaches the current time, so replicas serve
// every commit acknowledged before the call. Commit wait guarantees each
// acknowledged commit timestamp is below the time its commit returned.
func waitRCP(ctx context.Context, db *globaldb.DB) error {
	target := ts.FromTime(time.Now())
	deadline := time.Now().Add(30 * time.Second)
	for db.Cluster().Collector.RCP() < target {
		if time.Now().After(deadline) {
			return fmt.Errorf("RCP did not cover the load within 30s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}
