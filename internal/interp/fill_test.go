package interp

import (
	"sync"
	"testing"
)

// fillSeq fills n words from addr with start+i, recording each callback.
func fillSeq(m *Memory, addr uint64, n int, start uint64) (calls [][2]int) {
	m.Fill(addr, n, func(dst []uint64, i int) {
		calls = append(calls, [2]int{i, len(dst)})
		for j := range dst {
			dst[j] = start + uint64(i+j)
		}
	})
	return calls
}

func TestFillUnalignedStart(t *testing.T) {
	// A start in the middle of a page, and one whose low three bits are
	// set: like Store64, Fill ignores those bits.
	for _, addr := range []uint64{0x10_0f00, 0x10_0f05} {
		m := NewMemory()
		calls := fillSeq(m, addr, 100, 1000)
		if len(calls) != 2 || calls[0] != [2]int{0, 32} || calls[1] != [2]int{32, 68} {
			t.Errorf("%#x: callbacks %v, want [[0 32] [32 68]]", addr, calls)
		}
		for i := uint64(0); i < 100; i++ {
			if got := m.Load64(addr + 8*i); got != 1000+i {
				t.Fatalf("%#x: word %d = %d, want %d", addr, i, got, 1000+i)
			}
		}
		if got := m.Load64(addr - 8); got != 0 {
			t.Errorf("%#x: word before the run = %d", addr, got)
		}
		if got := m.Load64(addr + 800); got != 0 {
			t.Errorf("%#x: word after the run = %d", addr, got)
		}
	}
}

func TestFillCrossesPages(t *testing.T) {
	const addr, n = 0x20_0ff8, 3*pageWords + 5
	m, ref := NewMemory(), NewMemory()
	calls := fillSeq(m, addr, n, 7)
	for i := uint64(0); i < n; i++ {
		ref.Store64(addr+8*i, 7+i)
	}
	want := [][2]int{{0, 1}, {1, pageWords}, {1 + pageWords, pageWords}, {1 + 2*pageWords, pageWords}, {1 + 3*pageWords, 4}}
	if len(calls) != len(want) {
		t.Fatalf("callbacks %v, want %v", calls, want)
	}
	for k := range want {
		if calls[k] != want[k] {
			t.Fatalf("callback %d = %v, want %v", k, calls[k], want[k])
		}
	}
	if m.Footprint() != ref.Footprint() {
		t.Errorf("footprint %d, Store64 reference %d", m.Footprint(), ref.Footprint())
	}
	for i := uint64(0); i < n+pageWords; i++ {
		a := addr - pageWords*4 + 8*i
		if m.Load64(a) != ref.Load64(a) {
			t.Fatalf("word at %#x = %d, reference %d", a, m.Load64(a), ref.Load64(a))
		}
	}
}

func TestFillOverExistingPages(t *testing.T) {
	m := NewMemory()
	m.Store64(0x30_0000, 1) // before the run, same page
	m.Store64(0x30_0010, 2) // inside the run: the callback sees it
	m.Store64(0x31_0000, 3) // a page past the run's start page
	var seen uint64
	m.Fill(0x30_0010, 2*pageWords, func(dst []uint64, i int) {
		if i == 0 {
			seen = dst[0]
		}
		for j := range dst {
			dst[j] += 100
		}
	})
	if seen != 2 {
		t.Errorf("callback saw %d at an existing word, want its contents 2", seen)
	}
	if got := m.Load64(0x30_0000); got != 1 {
		t.Errorf("word before the run = %d, want 1", got)
	}
	if got := m.Load64(0x30_0010); got != 102 {
		t.Errorf("first word = %d, want 102", got)
	}
	if got := m.Load64(0x30_1000); got != 100 {
		t.Errorf("word on a page the run created = %d, want 100", got)
	}
	if got := m.Load64(0x31_0000); got != 3 {
		t.Errorf("page beyond the run = %d, want 3", got)
	}
}

func TestFillIntoForkCopiesOnWrite(t *testing.T) {
	base := NewMemory()
	fillSeq(base, 0x40_0000, 2*pageWords, 1)
	f := base.Fork()
	// Overlap the second base page and run onto two pages the base lacks.
	const addr = 0x40_1000 + 8*(pageWords-4)
	fillSeq(f, addr, 4+pageWords, 500)
	for i := uint64(0); i < 2*pageWords; i++ {
		if got := base.Load64(0x40_0000 + 8*i); got != 1+i {
			t.Fatalf("fill into the fork reached the base: word %d = %d", i, got)
		}
	}
	if got := base.Load64(0x40_2000); got != 0 {
		t.Errorf("page created in the fork appeared in the base: %d", got)
	}
	for i := uint64(0); i < 4+pageWords; i++ {
		if got := f.Load64(addr + 8*i); got != 500+i {
			t.Fatalf("fork word %d = %d, want %d", i, got, 500+i)
		}
	}
	// The copied page keeps the inherited words outside the run.
	if got := f.Load64(0x40_1000); got != 1+pageWords {
		t.Errorf("inherited word on the copied page = %d, want %d", got, 1+pageWords)
	}
	if got := len(f.SnapshotPages()); got != 2 {
		t.Errorf("fork owns %d pages, want 2 (one copied, one created)", got)
	}
}

func TestFillKeepsTLBCoherent(t *testing.T) {
	base := NewMemory()
	base.Store64(0x50_0000, 1)
	f := base.Fork()
	// Cache the inherited page and an absent one in the fork's TLB, then
	// fill over both: loads must see the fork's own copies.
	if f.Load64(0x50_0000) != 1 || f.Load64(0x50_1000) != 0 {
		t.Fatal("read-through before the fill")
	}
	fillSeq(f, 0x50_0000, 2*pageWords, 10)
	if got := f.Load64(0x50_0000); got != 10 {
		t.Errorf("load after fill over a cached inherited page = %d, want 10", got)
	}
	if got := f.Load64(0x50_1000); got != 10+pageWords {
		t.Errorf("load after fill over a cached miss = %d, want %d", got, 10+pageWords)
	}
	// A store after the fill goes to the fork's page, never the base's.
	f.Store64(0x50_0008, 99)
	if f.Load64(0x50_0008) != 99 || base.Load64(0x50_0008) != 0 {
		t.Error("store after the fill did not land in the fork's own page")
	}
	// A fill far enough to evict every TLB entry still reads back right.
	fillSeq(f, 0x60_0000, (tlbSize+3)*pageWords, 0)
	if got := f.Load64(0x50_0008); got != 99 {
		t.Errorf("word after TLB eviction = %d, want 99", got)
	}
}

func TestFillAllocatesOneSlab(t *testing.T) {
	const pages = 256
	allocs := testing.AllocsPerRun(5, func() {
		m := &Memory{pages: make(map[uint64]*page, pages)}
		m.Fill(0, pages*pageWords, func([]uint64, int) {})
	})
	// The map, the memory and the slab; one allocation per page would be
	// at least 256.
	if allocs > 8 {
		t.Errorf("filling %d pages took %.0f allocations, want one slab", pages, allocs)
	}
}

// TestConcurrentForksOfSlabBase reads and writes forks of a slab-built
// base from many goroutines; run under -race it checks that forks never
// write the shared slab.
func TestConcurrentForksOfSlabBase(t *testing.T) {
	const n = 8 * pageWords
	base := NewMemory()
	fillSeq(base, 0x70_0000, n, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			f := base.Fork()
			f.Store64(0x70_0000+8*g*pageWords, 1<<40+g)
			fillSeq(f, 0x70_0000+8*(g*pageWords/2), pageWords, 1<<50)
			for i := uint64(0); i < n; i++ {
				a := 0x70_0000 + 8*i
				want := i
				switch {
				case i >= g*pageWords/2 && i < g*pageWords/2+pageWords:
					want = 1<<50 + i - g*pageWords/2
				case i == g*pageWords:
					want = 1<<40 + g
				}
				if got := f.Load64(a); got != want {
					t.Errorf("fork %d: word %d = %d, want %d", g, i, got, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	for i := uint64(0); i < n; i++ {
		if got := base.Load64(0x70_0000 + 8*i); got != i {
			t.Fatalf("base word %d = %d after concurrent forks", i, got)
		}
	}
}
