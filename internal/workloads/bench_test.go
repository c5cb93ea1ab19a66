package workloads

import "testing"

// BenchmarkSuiteBuild builds the quick suite from nothing: the KR-S graph
// and all 13 workload images, the set-up every figure run pays before its
// first simulated instruction.
func BenchmarkSuiteBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, sp := range append(GAPSpecs(quickGraph.Input()), HPCDBSpecs()...) {
			sp.Build()
		}
	}
}
