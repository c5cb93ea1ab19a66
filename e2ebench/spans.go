package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/trace"
)

// The traced run's own spans, recorded around each call the benchmark
// makes into a layer: name, start, end, parent span and operation id.
// They are kept in memory and written out as a Perfetto (Chrome
// trace-event) document when the run ends. A nil *recorder is the
// untraced run: begin and end do nothing and allocate nothing.

type span struct {
	ID, Parent, Op uint64
	Name           string
	Start, End     time.Time
}

type recorder struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open is an in-flight span; end closes it.
type open struct {
	r *recorder
	s span
}

// begin opens a span named after the layer call it wraps. parent is the
// enclosing span's id (0 at the root), op identifies the operation (a
// cell or request index) so spans of one operation can be joined.
func (r *recorder) begin(name string, parent, op uint64) open {
	if r == nil {
		return open{s: span{Start: time.Now()}}
	}
	return open{r: r, s: span{ID: r.ids.Add(1), Parent: parent, Op: op, Name: name, Start: time.Now()}}
}

// id is the span's id, for children (0 when untraced).
func (o open) id() uint64 { return o.s.ID }

// end records the span and returns its duration in nanoseconds; the
// duration is measured whether or not the run is traced.
func (o open) end() int64 {
	now := time.Now()
	if o.r != nil {
		o.s.End = now
		o.r.mu.Lock()
		o.r.spans = append(o.r.spans, o.s)
		o.r.mu.Unlock()
	}
	return now.Sub(o.s.Start).Nanoseconds()
}

// durations returns the durations of every recorded span named name.
func (r *recorder) durations(name string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.End.Sub(s.Start))
		}
	}
	return out
}

// writePerfetto writes the spans as one track per span name.
func (r *recorder) writePerfetto(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(a, b int) bool { return spans[a].ID < spans[b].ID })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	pw := trace.NewPerfettoWriter(bw)
	const pid = 1
	if err := pw.ProcessName(pid, "e2ebench"); err != nil {
		return err
	}
	tids := map[string]int{}
	for _, s := range spans {
		tid, ok := tids[s.Name]
		if !ok {
			tid = len(tids) + 1
			tids[s.Name] = tid
			if err := pw.ThreadName(pid, tid, s.Name); err != nil {
				return err
			}
		}
		dur := uint64(s.End.Sub(s.Start).Microseconds())
		ev := trace.PerfettoEvent{
			Name: s.Name, Ph: "X", Pid: pid, Tid: tid, Dur: &dur,
			Ts:   uint64(s.Start.Sub(r.origin).Microseconds()),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
		if err := pw.Emit(ev); err != nil {
			return err
		}
	}
	if err := pw.Close(0); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
