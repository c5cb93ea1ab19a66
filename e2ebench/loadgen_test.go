package main

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a single-connection virtual clock: sleeping jumps to the
// wake time plus a fixed oversleep, and the fake send advances time by
// the request's service time. With one connection there is one goroutine,
// so every record is exact.
type fakeClock struct {
	now       time.Duration
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t + c.oversleep
	}
}

func evenSchedule(n int, gap time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	return due
}

func runFake(t *testing.T, due []time.Duration, oversleep, service time.Duration, fail func(i int) bool) []record {
	t.Helper()
	clk := &fakeClock{oversleep: oversleep}
	return openLoop(context.Background(), clk, due, 1, func(_ context.Context, i int) error {
		clk.now += service
		if fail != nil && fail(i) {
			return errors.New("refused")
		}
		return nil
	})
}

func TestOpenLoopLatencyFromDueAndLateness(t *testing.T) {
	// Requests every 2ms, served in 1ms, and the generator oversleeps each
	// wake-up by 100µs: latency is service plus oversleep, all of which is
	// generator lateness; nothing queues.
	recs := runFake(t, evenSchedule(1000, 2*time.Millisecond), 100*time.Microsecond, time.Millisecond, nil)
	for i, r := range recs {
		if got := r.latency(); got != 1100*time.Microsecond {
			t.Fatalf("request %d: latency %v, want 1.1ms", i, got)
		}
		if got := r.late(); got != 100*time.Microsecond {
			t.Fatalf("request %d: lateness %v, want 100µs", i, got)
		}
	}
	s := summarize(500, recs, 5*time.Millisecond)
	if s.P50MS != 1.1 || s.P99MS != 1.1 || s.LateP99 != 0.1 {
		t.Fatalf("p50 %v p99 %v late %v, want 1.1/1.1/0.1", s.P50MS, s.P99MS, s.LateP99)
	}
	if s.Backlog != 0 || s.Grows || !s.MeetsSLO {
		t.Fatalf("backlog %d grows %v meets %v, want 0/false/true", s.Backlog, s.Grows, s.MeetsSLO)
	}
}

func TestOpenLoopQueueingIsNotGeneratorLateness(t *testing.T) {
	// Requests every 1ms served in 3ms: the connection is always busy, so
	// every request after the first waits in the backlog. The wait counts
	// in latency (measured from due) but not as generator lateness, and
	// the backlog grows without bound.
	recs := runFake(t, evenSchedule(1000, time.Millisecond), 0, 3*time.Millisecond, nil)
	for i, r := range recs {
		if r.late() != 0 {
			t.Fatalf("request %d: lateness %v, want 0 (it waited for a busy connection)", i, r.late())
		}
		if want := time.Duration(2*i+3) * time.Millisecond; r.latency() != want {
			t.Fatalf("request %d: latency %v, want %v", i, r.latency(), want)
		}
	}
	s := summarize(1000, recs, 5*time.Millisecond)
	if !s.Grows || s.MeetsSLO {
		t.Fatalf("grows %v meets %v, want a growing backlog that misses the limit", s.Grows, s.MeetsSLO)
	}
	if s.Backlog < 600 {
		t.Fatalf("max backlog %d, want it to reach ~2/3 of the schedule", s.Backlog)
	}
}

func TestBacklogStableUnderBursts(t *testing.T) {
	// A burst of five simultaneous requests every 10ms, served in 1ms
	// each: when the fifth is due, the first is being sent and three wait
	// ahead of it; the backlog drains before the next burst, so it does
	// not grow.
	var due []time.Duration
	for b := 1; b <= 250; b++ {
		for k := 0; k < 5; k++ {
			due = append(due, time.Duration(b)*10*time.Millisecond)
		}
	}
	s := summarize(500, runFake(t, due, 0, time.Millisecond, nil), 5*time.Millisecond)
	if s.Grows {
		t.Fatal("periodic bursts that drain counted as a growing backlog")
	}
	if s.Backlog != 3 {
		t.Fatalf("max backlog %d, want 3", s.Backlog)
	}
	if !s.MeetsSLO || s.P99MS != 5 {
		t.Fatalf("p99 %v meets %v, want 5ms (the last of a burst) meeting a 5ms limit", s.P99MS, s.MeetsSLO)
	}
}

func TestFailuresMissTheLimit(t *testing.T) {
	// 2% of requests refused: they count as infinitely slow, so p99 is
	// +Inf and the step misses the limit even though every answered
	// request was fast.
	recs := runFake(t, evenSchedule(1000, 2*time.Millisecond), 0, time.Millisecond, func(i int) bool { return i%50 == 0 })
	s := summarize(500, recs, 5*time.Millisecond)
	if s.Failed != 20 || !math.IsInf(s.P99MS, 1) || s.MeetsSLO {
		t.Fatalf("failed %d p99 %v meets %v, want 20/+Inf/false", s.Failed, s.P99MS, s.MeetsSLO)
	}
	if s.P50MS != 1 {
		t.Fatalf("p50 %v, want 1ms", s.P50MS)
	}
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10_000, 99.9}, {9_999, 99}, {1_000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// A step below 1000 samples reports no p99 at all (and so cannot meet
	// a p99 limit).
	s := summarize(500, runFake(t, evenSchedule(999, 2*time.Millisecond), 0, time.Millisecond, nil), 5*time.Millisecond)
	if !math.IsNaN(s.P99MS) || s.MeetsSLO {
		t.Fatalf("999 samples: p99 %v meets %v, want NaN/false", s.P99MS, s.MeetsSLO)
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 1000, 5000)
	b := poissonSchedule(rand.New(rand.NewPCG(1, 2)), 1000, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule at %d", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	// 5000 arrivals at 1000/s span about 5s.
	if end := a[len(a)-1].Seconds(); end < 4.7 || end > 5.3 {
		t.Fatalf("5000 arrivals at 1000/s end at %.2fs, want ~5s", end)
	}
}

func TestLoopsConcurrentConnections(t *testing.T) {
	// Both generators with two connections on the real clock: every
	// request is sent once, no earlier than due, and the shared span
	// recorder sees each one (run under -race).
	rec := newRecorder()
	var sent [2000]atomic.Int32
	send := func(_ context.Context, i int) error {
		sp := rec.begin("client.Sim", 0, uint64(i))
		sent[i].Add(1)
		sp.end()
		return nil
	}
	due := poissonSchedule(rand.New(rand.NewPCG(3, 4)), 20_000, len(sent))
	recs := openLoop(context.Background(), newRealClock(), due, 2, send)
	for i, r := range recs {
		if sent[i].Load() != 1 {
			t.Fatalf("request %d sent %d times", i, sent[i].Load())
		}
		if r.start < r.due || r.done < r.start {
			t.Fatalf("request %d: due %v start %v done %v out of order", i, r.due, r.start, r.done)
		}
	}
	if got := len(rec.durations("client.Sim")); got != len(sent) {
		t.Fatalf("%d spans recorded, want %d", got, len(sent))
	}

	for i := range sent {
		sent[i].Store(0)
	}
	recs = closedLoop(context.Background(), newRealClock(), 20*time.Millisecond, 2, len(sent), send)
	if len(recs) == 0 {
		t.Fatal("closed loop sent nothing")
	}
	for i, r := range recs {
		if sent[i].Load() != 1 || r.done < r.start || r.due != r.start {
			t.Fatalf("closed-loop request %d: sent %d times, record %+v", i, sent[i].Load(), r)
		}
	}
}
