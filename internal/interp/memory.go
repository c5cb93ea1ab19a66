// Package interp provides functional (architectural) execution of micro-ISA
// programs: a sparse 64-bit memory, the architectural register state, and a
// step interpreter that yields the dynamic instruction stream consumed by
// the timing models. Runahead engines clone interpreter state to pre-execute
// the future instruction stream speculatively.
package interp

const (
	pageShift = 12 // 4 KiB pages
	pageWords = 1 << (pageShift - 3)
	pageMask  = (1 << pageShift) - 1

	tlbSize = 256 // direct-mapped page-translation cache entries
	tlbMask = tlbSize - 1
)

type page [pageWords]uint64

// tlbEntry caches one page-number-to-page translation. A nil page marks an
// empty entry; misses are never cached (a page created later must become
// visible).
type tlbEntry struct {
	pn    uint64
	p     *page
	owned bool // page lives in this memory's own page table (writable)
}

// Memory is a sparse, paged, 64-bit-word memory. Addresses are byte
// addresses; accesses are 8-byte aligned (the low three address bits are
// ignored). The zero value is an empty memory where every word reads zero.
//
// A Memory may be a copy-on-write fork of another (see Fork): reads fall
// through to the base image until a page is written, at which point the
// page is copied into the fork. A direct-mapped software TLB in front of
// the page table makes the common same-page access skip the map lookup;
// the TLB is private to each Memory, so forks of one base may be used from
// different goroutines as long as the base itself is no longer written.
type Memory struct {
	pages map[uint64]*page
	base  *Memory // copy-on-write parent; nil for a root memory
	tlb   [tlbSize]tlbEntry
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: make(map[uint64]*page)} }

// Fork returns a copy-on-write view of m at page granularity. The fork
// reads through to m until it writes a page, and its writes never reach m.
// Forks are cheap (no page is copied up front); runahead engines fork the
// image per episode instead of deep-copying it.
func (m *Memory) Fork() *Memory { return &Memory{base: m} }

// Load64 returns the 64-bit word at addr.
func (m *Memory) Load64(addr uint64) uint64 {
	pn := addr >> pageShift
	if e := &m.tlb[pn&tlbMask]; e.p != nil && e.pn == pn {
		return e.p[(addr&pageMask)>>3]
	}
	return m.loadSlow(addr, pn)
}

func (m *Memory) loadSlow(addr, pn uint64) uint64 {
	p, owned := m.find(pn)
	if p == nil {
		return 0
	}
	m.tlb[pn&tlbMask] = tlbEntry{pn: pn, p: p, owned: owned}
	return p[(addr&pageMask)>>3]
}

// find locates the page holding pn, walking the copy-on-write chain. It
// never touches an ancestor's TLB, so concurrent forks of a frozen base
// remain race-free.
func (m *Memory) find(pn uint64) (p *page, owned bool) {
	if p, ok := m.pages[pn]; ok {
		return p, true
	}
	for b := m.base; b != nil; b = b.base {
		if p, ok := b.pages[pn]; ok {
			return p, false
		}
	}
	return nil, false
}

// Store64 writes the 64-bit word at addr.
func (m *Memory) Store64(addr, val uint64) {
	pn := addr >> pageShift
	if e := &m.tlb[pn&tlbMask]; e.owned && e.pn == pn {
		e.p[(addr&pageMask)>>3] = val
		return
	}
	m.ownPage(pn)[(addr&pageMask)>>3] = val
}

// ownPage returns a writable page for pn, copying it from the base image
// (copy-on-write) or creating it, and caches the translation.
func (m *Memory) ownPage(pn uint64) *page {
	p, owned := m.find(pn)
	if !owned {
		p = m.adopt(pn, p, new(page))
	}
	m.tlb[pn&tlbMask] = tlbEntry{pn: pn, p: p, owned: true}
	return p
}

// adopt installs fresh as m's own page pn, seeded with the contents of the
// inherited page when pn comes from the base image.
func (m *Memory) adopt(pn uint64, inherited, fresh *page) *page {
	if m.pages == nil {
		m.pages = make(map[uint64]*page)
	}
	if inherited != nil {
		*fresh = *inherited
	}
	m.pages[pn] = fresh
	return fresh
}

// Fill writes the run of n consecutive 64-bit words starting at addr in
// place: fn is called once per page the run touches, in address order,
// with dst the run's words within that page (holding their current
// contents) and i the index of dst[0] within the run. Every page the run
// does not yet own — absent, or inherited from the base image and so
// copied first — comes from one slab allocated for the whole run, not one
// allocation per page. Fill is the one path that writes a run of words:
// StoreSlice and the workload image builders are expressed on it.
func (m *Memory) Fill(addr uint64, n int, fn func(dst []uint64, i int)) {
	if n <= 0 {
		return
	}
	addr &^= 7
	first, last := addr>>pageShift, (addr+uint64(n)*8-1)>>pageShift
	unowned := 0
	for pn := first; pn <= last; pn++ {
		if _, owned := m.find(pn); !owned {
			unowned++
		}
	}
	slab := make([]page, unowned)
	for pn, i := first, 0; pn <= last; pn++ {
		p, owned := m.find(pn)
		if !owned {
			p = m.adopt(pn, p, &slab[0])
			slab = slab[1:]
		}
		m.tlb[pn&tlbMask] = tlbEntry{pn: pn, p: p, owned: true}
		lo := (addr & pageMask) >> 3
		if pn != first {
			lo = 0
		}
		hi := min(uint64(pageWords), lo+uint64(n-i))
		fn(p[lo:hi], i)
		i += int(hi - lo)
	}
}

// StoreSlice writes vals as consecutive 64-bit words starting at addr.
func (m *Memory) StoreSlice(addr uint64, vals []uint64) {
	m.Fill(addr, len(vals), func(dst []uint64, i int) { copy(dst, vals[i:]) })
}

// Footprint returns the number of bytes of memory touched (page granular),
// including pages inherited from the base image of a fork.
func (m *Memory) Footprint() uint64 {
	if m.base == nil {
		return uint64(len(m.pages)) << pageShift
	}
	seen := make(map[uint64]struct{})
	for b := m; b != nil; b = b.base {
		for pn := range b.pages {
			seen[pn] = struct{}{}
		}
	}
	return uint64(len(seen)) << pageShift
}
