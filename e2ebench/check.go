package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/workloads"
)

// Output checks. Every operation the benchmark performs (a simulated
// cell, a batch cell through the fleet, a single request) is counted as
// attempted, and as failed when it errors, is refused, or returns an
// output that fails a check. No golden digest is involved: results are
// checked against invariants and against the program's own in-process
// answers, so a legitimate model change elsewhere does not break the
// benchmark.

// tally counts operations; safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string // the first few failures, for the log
}

// add counts one operation, failed when err is non-nil.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// matrix is a result matrix in suite order: rows are specs, columns
// fig7Techs.
type matrix [][]cpu.Result

// fromMap flattens experiments' map form into suite order.
func fromMap(specs []workloads.Spec, m map[string]map[experiments.Technique]cpu.Result) matrix {
	out := make(matrix, len(specs))
	for i, sp := range specs {
		out[i] = make([]cpu.Result, len(fig7Techs))
		for j, tech := range fig7Techs {
			out[i][j] = m[sp.Name][tech]
		}
	}
	return out
}

// canonJSON is the result's canonical encoding, the bytes the service
// contract keeps identical between a server and an in-process run.
func canonJSON(r cpu.Result) []byte {
	b, err := json.Marshal(r.Canonical())
	if err != nil {
		// cpu.Result holds only numbers, strings, arrays and one pointer to
		// a plain struct; a marshal failure is a bug.
		panic(err)
	}
	return b
}

// checkCell verifies one cell's invariants: it is the cell asked for, it
// committed exactly want instructions, its cycle count respects the
// machine width, and a sampled run says so.
func checkCell(r cpu.Result, name string, tech experiments.Technique, want uint64, width int, sampled bool) error {
	switch {
	case r.Name != name || r.Technique != string(tech):
		return fmt.Errorf("cell %s/%s: result is for %s/%s", name, tech, r.Name, r.Technique)
	case r.Instructions != want:
		return fmt.Errorf("cell %s/%s: committed %d instructions, want %d", name, tech, r.Instructions, want)
	case r.Cycles*uint64(width) < r.Instructions:
		return fmt.Errorf("cell %s/%s: %d cycles for %d instructions exceeds width %d", name, tech, r.Cycles, r.Instructions, width)
	case sampled && r.Sampled == nil:
		return fmt.Errorf("cell %s/%s: sampled result without sampling provenance", name, tech)
	case !sampled && r.Sampled != nil:
		return fmt.Errorf("cell %s/%s: exact result carries sampling provenance", name, tech)
	}
	return nil
}

// checker verifies matrices of one suite against its expected
// instruction counts (see functionalCounts) and a reference matrix
// that every later matrix must equal byte for byte.
type checker struct {
	s       *suite
	sampled bool
	want    []uint64
	ref     [][][]byte // canonical JSON of the reference matrix
}

func newChecker(s *suite, sampled bool, want []uint64) *checker {
	return &checker{s: s, sampled: sampled, want: want}
}

// check counts every cell of m in t. The first matrix checked becomes the
// reference; later ones must match it byte for byte after Canonical (the
// determinism contract, which also covers traced versus untraced runs).
// All techniques of one benchmark commit the same count because each is
// checked against the same functional count. A nil m (the run failed)
// counts every cell failed with err.
func (c *checker) check(t *tally, m matrix, err error) {
	width := cfg().Width
	first := c.ref == nil && m != nil
	if first {
		c.ref = make([][][]byte, len(m))
	}
	for i, sp := range c.s.specs {
		for j, tech := range fig7Techs {
			if m == nil {
				t.add(fmt.Errorf("cell %s/%s: %w", sp.Name, tech, err))
				continue
			}
			r := m[i][j]
			cellErr := checkCell(r, sp.Name, tech, c.want[i], width, c.sampled)
			b := canonJSON(r)
			if first {
				c.ref[i] = append(c.ref[i], b)
			} else if cellErr == nil && !bytes.Equal(b, c.ref[i][j]) {
				cellErr = fmt.Errorf("cell %s/%s: result differs from the reference run", sp.Name, tech)
			}
			t.add(cellErr)
		}
	}
}

// checkAgainst verifies one result produced outside the matrix runner (a
// serial cell, a fleet cell) against the reference matrix: it must be the
// same canonical bytes as the matrix's result for cell (i, j).
func (c *checker) checkAgainst(r cpu.Result, i, j int) error {
	if err := checkCell(r, c.s.specs[i].Name, fig7Techs[j], c.want[i], cfg().Width, c.sampled); err != nil {
		return err
	}
	if !bytes.Equal(canonJSON(r), c.ref[i][j]) {
		return fmt.Errorf("cell %s/%s: fleet result differs from the in-process result", c.s.specs[i].Name, fig7Techs[j])
	}
	return nil
}
