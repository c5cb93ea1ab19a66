package main

import (
	"fmt"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/graphgen"
	"dvr/internal/workloads"
)

// Inputs. The seed picks the Kronecker graph behind the five GAP kernels
// (and, on fleet-warm, the request schedule); the eight hpc-db kernels
// have fixed internal seeds. Seed 7 reproduces the quick suite's KR-S
// input, so at the quick ROI the default seed regenerates the Figure 7
// that dvrbench -quick fig7 prints.

const defaultSeed = 7

// Timed instruction budgets per workload. Longer ROIs make a run steadier;
// these keep one matrix at a few seconds on a two-core host.
const (
	quickROI   = 60_000  // the quick suite's ROI (fleet-cold)
	exactROI   = 150_000 // sim-exact
	sampledROI = 600_000 // sim-sampled
	warmROI    = 20_000  // fleet-warm's cached cells: cheap to fill, same answer size
)

// fig7Techs is the Figure 7 lineup: the OoO baseline plus every technique.
var fig7Techs = append([]experiments.Technique{experiments.TechOoO}, experiments.AllTechniques...)

// graphParams is the seeded graph input; seed 7 is the quick suite's KR-S.
func graphParams(seed uint64) graphgen.Params {
	return graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: seed, Name: "KR-S"}
}

// suite is the Figure 7 benchmark set, built once: each spec's Build
// hands out a copy-on-write fork of a prebuilt base image.
type suite struct {
	specs   []workloads.Spec
	bases   []*workloads.Workload
	graphNS int64 // graph generation
	buildNS int64 // the 13 workload images, graph excluded
}

// buildSuite generates the seeded graph and builds the 13 workload images
// at roi (the five graph kernels first), recording a span around each
// call into graphgen and workloads.
func buildSuite(seed, roi uint64, rec *recorder, parent uint64) (*suite, error) {
	return build(seed, roi, true, rec, parent)
}

// buildGAP builds only the five graph kernels of a seed's suite.
func buildGAP(seed, roi uint64) (*suite, error) { return build(seed, roi, false, nil, 0) }

func build(seed, roi uint64, hpcdb bool, rec *recorder, parent uint64) (*suite, error) {
	s := &suite{}
	p := graphParams(seed)
	sp := rec.begin("graphgen.Generate", parent, 0)
	g, err := p.Generate()
	s.graphNS = sp.end()
	if err != nil {
		return nil, fmt.Errorf("generating graph: %w", err)
	}
	in := graphgen.Input{Name: p.Label(), Params: p, Build: func() *graphgen.Graph { return g }}
	specs := workloads.GAPSpecs(in)
	if hpcdb {
		specs = append(specs, workloads.HPCDBSpecs()...)
	}
	for i, spec := range specs {
		spec = spec.WithROI(roi)
		sp := rec.begin("workloads.Build", parent, uint64(i))
		base := spec.Build()
		s.buildNS += sp.end()
		spec.Build = base.Fork
		s.specs = append(s.specs, spec)
		s.bases = append(s.bases, base)
	}
	return s, nil
}

// release drops the built images, and the Build closures that hold them,
// once only the suite's names and refs are still needed.
func (s *suite) release() {
	s.bases = nil
	for i := range s.specs {
		s.specs[i].Build = nil
	}
}

// refs returns the suite's declarative refs, in spec order: what a fleet
// client sends.
func (s *suite) refs() []workloads.Ref {
	out := make([]workloads.Ref, len(s.specs))
	for i, sp := range s.specs {
		out[i] = sp.Ref
	}
	return out
}

// cfg is the configuration every cell runs under: the Table 1 core, as
// the service uses for requests that carry none.
func cfg() cpu.Config { return cpu.DefaultConfig() }

// since returns the seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
