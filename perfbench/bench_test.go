package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for _, v := range []int{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} {
		s.add(time.Duration(v)*time.Millisecond, 0)
	}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0, 1, 9}, {0.1, 1, 9}, {0.11, 2, 8}, {0.5, 5, 5}, {0.9, 9, 1}, {0.99, 10, 0}, {1, 10, 0},
	} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := s.beyond(c.q); got != c.beyond {
			t.Errorf("beyond(%v) = %v, want %v", c.q, got, c.beyond)
		}
	}
	// The result is a sample, not an interpolated or bucketed value.
	var odd samples
	for _, v := range []time.Duration{1100, 1300, 1700} {
		odd.add(v*time.Microsecond, 0)
	}
	if got := odd.quantile(0.5); got != 1.3 {
		t.Errorf("median of 1.1/1.3/1.7 ms = %v, want 1.3", got)
	}
	if !math.IsNaN((&samples{}).quantile(0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestQuantileCountsFailuresAsSlowest(t *testing.T) {
	var s samples
	for i := 1; i <= 99; i++ {
		s.add(time.Millisecond, 0)
	}
	s.addFailed(0)
	if got := s.quantile(0.99); got != 1 {
		t.Errorf("p99 with one failure in 100 = %v, want 1", got)
	}
	if got := s.quantile(1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
}

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.op", Start: 0, End: 100},
		// Two overlapping children [10,40) and [30,60): cover 50, not 60.
		{ID: 2, Parent: 1, Name: "coordinator.get_local", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "coordinator.scan", Start: 30, End: 60},
		// A child nested inside another adds no extra cover.
		{ID: 4, Parent: 1, Name: "coordinator.get_local", Start: 15, End: 20},
		// Cover outside the parent's interval is ignored: [90,100) counts.
		{ID: 5, Parent: 1, Name: "coordinator.commit_1shard", Start: 90, End: 130},
		// A grandchild reduces only its own parent's self time.
		{ID: 6, Parent: 3, Name: "netsim.call", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30, 3: 30 - 10, 4: 5, 5: 40, 6: 10}
	for id, w := range want {
		if self[id-1] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id-1], w)
		}
	}
	rows := map[string]layerRow{}
	for _, r := range layerTable(spans) {
		rows[r.Name] = r
	}
	if r := rows["coordinator.get_local"]; r.Count != 2 || r.Total != 35 || r.Self != 35 {
		t.Errorf("get_local row = %+v", r)
	}
	if r := rows["coordinator.*"]; r.Count != 4 || r.Self != 30+5+20+40 {
		t.Errorf("coordinator.* row = %+v", r)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x"))
	tr.end(tr.beginOp("y"))

	tr = newTracer(time.Now(), 0)
	op := tr.beginOp("client.op")
	call := tr.begin("coordinator.begin")
	tr.end(call)
	tr.end(op)
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[1].Op != tr.spans[0].ID {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

var errAbort = errors.New("write-write conflict")

// fakeOp aborts its first n attempts, then succeeds.
type fakeOp struct{ n, calls int }

func (f *fakeOp) attempt() error {
	f.calls++
	if f.calls <= f.n {
		return errAbort
	}
	return nil
}

func TestRetryAccounting(t *testing.T) {
	p := retryPolicy{maxAttempts: 5, base: time.Millisecond, cap: 4 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		aborts, wantAttempts, wantSleeps int
		ok                               bool
	}{
		{0, 1, 0, true},
		{3, 4, 3, true},
		{4, 5, 4, true},
		{5, 5, 4, false}, // gives up
		{9, 5, 4, false},
	} {
		var slept []time.Duration
		op := &fakeOp{n: c.aborts}
		n, err := p.run(rng, func(d time.Duration) { slept = append(slept, d) }, op.attempt)
		if n != c.wantAttempts || op.calls != c.wantAttempts || len(slept) != c.wantSleeps {
			t.Errorf("aborts=%d: attempts=%d calls=%d sleeps=%d", c.aborts, n, op.calls, len(slept))
		}
		if (err == nil) != c.ok || (!c.ok && !errors.Is(err, errAbort)) {
			t.Errorf("aborts=%d: err=%v", c.aborts, err)
		}
		for i, d := range slept {
			hi := min(p.base<<i, p.cap)
			if d < hi/2 || d > hi {
				t.Errorf("aborts=%d: backoff %d = %v, want in [%v, %v]", c.aborts, i, d, hi/2, hi)
			}
		}
	}
}

func TestRetryStopsOnCheckFailure(t *testing.T) {
	calls := 0
	n, err := defaultRetry.run(rand.New(rand.NewSource(1)), func(time.Duration) {}, func() error {
		calls++
		return checkFailed("wrong row count")
	})
	if n != 1 || calls != 1 || !isCheck(err) {
		t.Fatalf("n=%d calls=%d err=%v", n, calls, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := newWorkload(options{workload: w.Name}); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestQuietWindows(t *testing.T) {
	// One-second windows; in window 2 the host steals half the CPU and the
	// program runs 10x slower. The quiet windows leave it out.
	r := &phaseResult{width: 1, elapsed: windows * time.Second,
		cpuAt: make([]time.Duration, windows+1), hostAt: make([]hostCPU, windows+1)}
	for i := 0; i < windows; i++ {
		n, lat, steal := 100, time.Millisecond, uint64(1)
		if i == 2 {
			n, lat, steal = 10, 10*time.Millisecond, 100
		}
		for j := 0; j < n; j++ {
			r.all.add(lat, float64(i)+float64(j)/float64(n))
		}
		r.cpuAt[i+1] = r.cpuAt[i] + time.Duration(n)*time.Millisecond // 1 ms CPU per op
		r.hostAt[i+1] = hostCPU{steal: r.hostAt[i].steal + steal, total: r.hostAt[i].total + 200}
	}
	// Ties keep window order.
	if got := r.quiet(); len(got) != quietWindows || got[0] != 0 || got[1] != 1 || got[2] != 3 || got[3] != 4 {
		t.Errorf("quiet windows = %v", got)
	}
	if got := r.quietSamples(&r.all).quantile(1); got != 1 {
		t.Errorf("slowest quiet sample = %v ms, want 1", got)
	}
	if got := r.quietRate(); got != 100 {
		t.Errorf("quiet rate = %v, want 100", got)
	}
	if got := r.quietCPU(); got != 1 {
		t.Errorf("quiet CPU per op = %v, want 1", got)
	}

	// Without a steal counter every window counts.
	r.quietIdx, r.hostAt = nil, make([]hostCPU, windows+1)
	if got := r.quiet(); len(got) != windows {
		t.Errorf("quiet windows without steal counter = %v", got)
	}
}
