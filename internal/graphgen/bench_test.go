package graphgen

import "testing"

// BenchmarkGenerate generates each Table 2 input, named by generator and
// input, so every generator is timed at the size the full suite uses.
func BenchmarkGenerate(b *testing.B) {
	for _, p := range Table2Params() {
		b.Run(p.Gen+"/"+p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Generate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
