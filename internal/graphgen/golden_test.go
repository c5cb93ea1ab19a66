package graphgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
)

// graphDigest hashes a graph's vertex count and both CSR arrays.
func graphDigest(g *Graph) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(g.N))
	for _, o := range g.Offsets {
		put(o)
	}
	for _, e := range g.Edges {
		put(e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenGraphs pins every shipped graph input byte for byte: Table 2, the
// small inputs, and the quick suite's KR-S. The digests were taken before
// the generators were last optimised.
var goldenGraphs = map[string]string{
	"KR":    "56b8e35bf0ae9dd3f3dcec2abd492fe62f35f0d8316186505d0e6696e37c72a2",
	"LJN":   "c8e37a47eb51607541a0c1d3cb6219bef10bf4cb3b57610dd08aa47bc89808e6",
	"ORK":   "d6648588c7b5ea8c512884e15a380a610cb32519759ee57a93a073758c0bb05a",
	"TW":    "20e09ccb94d0bb732e3edbf0c46783f1406cd87a05e7d40ebc1470448dc84209",
	"UR":    "3bf8bce25f938157b9977585d0b93e79fea64c2b764c3ac023229197b27efb5b",
	"KR-S":  "76d4e204635714873f8a66eded80928dfff6d5635684b32df1794cb0fb101ba3",
	"UR-S":  "0e4029b6d3b070b5b7c10e65984f8eefa563a6b46f5b96a5e9caab9cfbdc24ff",
	"KR-S7": "fd7f9aefc901229ac6f0c525574db21f27b678285c1d9ed64bf3cb98f2e4f7e1",
}

func goldenInputs() []Params {
	ps := Table2Params()
	for _, in := range SmallInputs() {
		ps = append(ps, in.Params)
	}
	return append(ps, Params{Gen: GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S7"})
}

func TestGoldenGraphs(t *testing.T) {
	ps := goldenInputs()
	for _, p := range ps {
		g, err := p.Generate()
		if err != nil {
			t.Fatal(err)
		}
		got := graphDigest(g)
		if want := goldenGraphs[p.Name]; got != want {
			t.Errorf("%s: graph digest %s, want %s", p.Name, got, want)
		}
	}
	if len(ps) != len(goldenGraphs) {
		t.Errorf("%d inputs, %d golden digests", len(ps), len(goldenGraphs))
	}
}

// kroneckerRef is the float-switch Kronecker generator that the
// branch-free one replaced: the reference it must match edge for edge.
func kroneckerRef(scale, edgeFactor int, seed uint64) *Graph {
	n := 1 << uint(scale)
	m := n * edgeFactor
	r := rng{s: seed}
	src := make([]uint32, m)
	dst := make([]uint32, m)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			p := r.float()
			switch {
			case p < a:
			case p < a+b:
				v |= 1 << uint(bit)
			case p < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		src[i] = uint32(u)
		dst[i] = uint32(v)
	}
	return fromEdgeList(n, src, dst)
}

// powerLawRef is PowerLaw with the float binary search and modulo draws
// that the branch-free pick and masked intn replaced.
func powerLawRef(n, m int, alpha float64, seed uint64) *Graph {
	r := rng{s: seed}
	s := 1.0 / (alpha - 1.0)
	cum := make([]float64, n)
	total := 0.0
	for rank := 0; rank < n; rank++ {
		total += math.Pow(float64(rank+1), -s)
		cum[rank] = total
	}
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		u := r.float() * total
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		src[i] = uint32(lo)
		dst[i] = uint32(r.next() % uint64(n))
	}
	return fromEdgeList(n, src, dst)
}

// uniformRef is Uniform with modulo draws.
func uniformRef(n, m int, seed uint64) *Graph {
	r := rng{s: seed}
	src := make([]uint32, m)
	dst := make([]uint32, m)
	for i := 0; i < m; i++ {
		src[i] = uint32(r.next() % uint64(n))
		dst[i] = uint32(r.next() % uint64(n))
	}
	return fromEdgeList(n, src, dst)
}

func sameGraph(t *testing.T, name string, got, want *Graph) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Edges, want.Edges) {
		t.Errorf("%s: differs from the reference generator", name)
	}
}

func TestKroneckerMatchesReference(t *testing.T) {
	for _, c := range []struct {
		scale, edgeFactor int
		seed              uint64
	}{{1, 1, 0}, {2, 5, 3}, {7, 16, 1}, {9, 6, 5}, {12, 8, 11}, {14, 4, 1 << 63}} {
		name := fmt.Sprintf("kronecker(%d,%d,%d)", c.scale, c.edgeFactor, c.seed)
		sameGraph(t, name, Kronecker(c.scale, c.edgeFactor, c.seed), kroneckerRef(c.scale, c.edgeFactor, c.seed))
	}
}

func TestPowerLawMatchesReference(t *testing.T) {
	for _, c := range []struct {
		n, m  int
		alpha float64
		seed  uint64
	}{{1, 50, 2.0, 1}, {2, 100, 1.5, 2}, {3, 300, 2.3, 3}, {1024, 20_000, 2.6, 4}, {5000, 40_000, 1.1, 5}, {60_000, 100_000, 2.3, 2}} {
		name := fmt.Sprintf("powerlaw(%d,%d,%g,%d)", c.n, c.m, c.alpha, c.seed)
		sameGraph(t, name, PowerLaw(c.n, c.m, c.alpha, c.seed), powerLawRef(c.n, c.m, c.alpha, c.seed))
	}
}

func TestUniformMatchesReference(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 10}, {2, 100}, {1000, 8000}, {4096, 32768}, {65_537, 10_000}} {
		name := fmt.Sprintf("uniform(%d,%d)", c.n, c.m)
		sameGraph(t, name, Uniform(c.n, c.m, uint64(c.n)), uniformRef(c.n, c.m, uint64(c.n)))
	}
}

// TestFloatBelowIsExact: floatBelow(t) is the least 53-bit draw whose
// float() is not below t, so the integer comparison agrees with the float
// one on every draw, including the boundary no sampling test would reach.
func TestFloatBelowIsExact(t *testing.T) {
	const a, b, c = 0.57, 0.19, 0.19
	for _, th := range []float64{a, a + b, a + b + c, 0.5, 0.3, 1e-9, math.Nextafter(1, 0)} {
		k := floatBelow(th)
		if float64(k)/(1<<53) < th || (k > 0 && !(float64(k-1)/(1<<53) < th)) {
			t.Errorf("floatBelow(%v) = %d is not the boundary draw", th, k)
		}
	}
}
