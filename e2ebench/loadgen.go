package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Requests are due on a seeded Poisson
// schedule regardless of how fast the system answers; at most conns are
// in flight at once (one per connection). A request due while every
// connection is busy waits in the generator's backlog, and its latency is
// still counted from its due time, so a stall shows up in every request
// it delays.

// clock is the generator's view of time: an offset from the start of a
// step. The real clock sleeps; tests substitute a fake one.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type realClock struct{ origin time.Time }

func newRealClock() realClock { return realClock{origin: time.Now()} }

func (c realClock) Now() time.Duration { return time.Since(c.origin) }

// poissonSchedule returns n due times of a Poisson arrival process at rate
// requests per second, starting at the first inter-arrival gap.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// record is one request's timeline, as offsets from the step's start:
// due is when the schedule wanted it sent, picked when a connection took
// it, start when it was sent, done when its answer (or error) arrived.
type record struct {
	due, picked, start, done time.Duration
	err                      error
}

// latency is measured from the due time, so generator backlog counts.
func (r record) latency() time.Duration { return r.done - r.due }

// late is how far behind its own schedule the generator sent the
// request: time spent after the request was both due and picked up by a
// free connection. Waiting for a busy connection is the system's delay,
// not the generator's.
func (r record) late() time.Duration { return r.start - max(r.due, r.picked) }

// openLoop sends every scheduled request over conns connections and
// returns their records in schedule order. send gets the request's index;
// an error marks that request failed.
func openLoop(ctx context.Context, clk clock, due []time.Duration, conns int, send func(ctx context.Context, i int) error) []record {
	recs := make([]record, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				r := record{due: due[i], picked: clk.Now()}
				clk.SleepUntil(due[i])
				r.start = clk.Now()
				if ctx.Err() != nil {
					r.err = ctx.Err()
				} else {
					r.err = send(ctx, i)
				}
				r.done = clk.Now()
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	return recs
}

// stepResult summarizes one rate step.
type stepResult struct {
	Rate     float64
	Sent     int
	Failed   int
	P50MS    float64 // +Inf when more than half the requests failed
	P99MS    float64 // +Inf when more than 1% failed; NaN when unsupported
	LateP99  float64 // generator lateness, ms
	Backlog  int     // largest backlog seen at any due time
	Grows    bool    // the backlog grew over the step
	MeetsSLO bool
}

// backlogGrowthSlack is how much larger, in requests, the mean backlog
// over a step's last quarter may be than over its first quarter before
// the step counts as overloaded; a fixed slack keeps a stable but busy
// system (whose backlog fluctuates by a few requests) from tripping it.
const backlogGrowthSlack = 4

// summarize computes a step's latency percentiles (failures count as
// infinitely slow, so they miss any limit), generator lateness, backlog
// series and whether the step met limit.
func summarize(rate float64, recs []record, limit time.Duration) stepResult {
	res := stepResult{Rate: rate, Sent: len(recs)}
	lat := make([]float64, len(recs))
	late := make([]float64, len(recs))
	for i, r := range recs {
		late[i] = float64(r.late()) / float64(time.Millisecond)
		if r.err != nil {
			res.Failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = float64(r.latency()) / float64(time.Millisecond)
	}
	res.P50MS = percentile(lat, 50)
	res.P99MS = math.NaN()
	if highestPercentile(len(recs)) >= 99 {
		res.P99MS = percentile(lat, 99)
	}
	res.LateP99 = percentile(late, 99)
	backlog := backlogAtDue(recs)
	for _, b := range backlog {
		res.Backlog = max(res.Backlog, b)
	}
	res.Grows = backlogGrows(backlog)
	res.MeetsSLO = res.P99MS <= float64(limit)/float64(time.Millisecond) && !res.Grows
	return res
}

// backlogAtDue returns, at each request's due time, how many earlier
// requests were due but not yet sent. recs must be in schedule order.
func backlogAtDue(recs []record) []int {
	starts := make([]time.Duration, len(recs))
	for i, r := range recs {
		starts[i] = r.start
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	out := make([]int, len(recs))
	for i, r := range recs {
		sent := sort.Search(len(starts), func(k int) bool { return starts[k] > r.due })
		out[i] = max(i-sent, 0)
	}
	return out
}

// backlogGrows compares the mean backlog of the last quarter of a step
// with that of the first.
func backlogGrows(backlog []int) bool {
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		var s int
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[len(backlog)-q:]) > mean(backlog[:q])+backlogGrowthSlack
}

// closedLoop keeps conns requests in flight until dur has passed: each
// connection sends its next request as soon as the previous one answers.
// Request indices run from 0 and stop at limit. It returns the records
// indexed by request, each timed from its own send (due = start), so
// latency is the round trip.
func closedLoop(ctx context.Context, clk clock, dur time.Duration, conns, limit int, send func(ctx context.Context, i int) error) []record {
	recs := make([]record, limit)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				start := clk.Now()
				if start >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				r := record{due: start, picked: start, start: start}
				r.err = send(ctx, i)
				r.done = clk.Now()
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	return recs[:min(int(next.Load()), limit)]
}
