package service

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightGroup collapses concurrent identical jobs: while a computation for
// a key is in flight, later arrivals for the same key wait for its result
// instead of computing again. The leader's context drives the computation;
// a follower whose own context expires first stops waiting (and gets its
// context error) without disturbing the flight. It is generic over the
// result type: the worker collapses simulations (cpu.Result), the frontend
// collapses routed cells (api.SimResponse).
type flightGroup[T any] struct {
	mu     sync.Mutex
	flying map[string]*flight[T]
	shared atomic.Uint64 // results delivered to followers
}

type flight[T any] struct {
	done chan struct{}
	res  T
	err  error
}

func newFlightGroup[T any]() *flightGroup[T] {
	return &flightGroup[T]{flying: make(map[string]*flight[T])}
}

// Do runs fn for key unless a flight for key is already in progress, in
// which case it waits for that flight. It returns fn's (or the flight's)
// result and whether this caller was a follower. A leader whose fn fails
// delivers the error to every follower; followers whose own context is
// still live retry once as a potential new leader (Server.run does
// this, counted at /metrics as single_flight_retries; the cache absorbs
// the common case where the leader succeeded).
func (g *flightGroup[T]) Do(ctx context.Context, key string, fn func() (T, error)) (res T, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flying[key]; ok {
		g.mu.Unlock()
		select {
		case <-f.done:
			g.shared.Add(1)
			return f.res, true, f.err
		case <-ctx.Done():
			var zero T
			return zero, true, ctx.Err()
		}
	}
	f := &flight[T]{done: make(chan struct{})}
	g.flying[key] = f
	g.mu.Unlock()

	f.res, f.err = fn()
	g.mu.Lock()
	delete(g.flying, key)
	g.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}

// Shared returns how many results were delivered to followers.
func (g *flightGroup[T]) Shared() uint64 { return g.shared.Load() }
