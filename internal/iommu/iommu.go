// Package iommu models the input/output memory management unit on the
// NIC-to-CPU data path (§3.1 of the paper): a 4-level radix page table that
// lives in host memory, an IOTLB that caches completed translations, and a
// page-walk cache for upper-level entries. Every DMA the NIC issues must
// translate its IO-virtual address here (when protection is enabled);
// IOTLB misses turn into one or more reads through the memory controller,
// inflating per-DMA latency exactly as the paper describes.
//
// The package also implements the §4(a) extension: an ATS-style device TLB
// (translations cached on the NIC itself) that can be sized independently
// of the host IOTLB.
package iommu

import (
	"fmt"

	"hic/internal/mem"
	"hic/internal/metrics"
	"hic/internal/sim"
)

// PageSize selects the mapping granularity for a registered region.
type PageSize int

const (
	// Page4K is a standard 4 KiB page (12-bit offset, 4-level walk).
	Page4K PageSize = iota
	// Page2M is a 2 MiB hugepage (21-bit offset, 3-level walk).
	Page2M
)

// Shift returns the page-offset bit width.
func (p PageSize) Shift() uint {
	if p == Page2M {
		return 21
	}
	return 12
}

// Bytes returns the page size in bytes.
func (p PageSize) Bytes() uint64 { return 1 << p.Shift() }

// WalkLevels returns how many page-table levels a full walk traverses.
func (p PageSize) WalkLevels() int {
	if p == Page2M {
		return 3
	}
	return 4
}

func (p PageSize) String() string {
	if p == Page2M {
		return "2M"
	}
	return "4K"
}

// MapMode selects how the stack manages IOMMU mappings.
type MapMode int

const (
	// LooseMode registers fixed regions upfront and keeps them mapped
	// for the lifetime of the run — the paper's setup ("no software
	// IOTLB invalidations at run time").
	LooseMode MapMode = iota
	// StrictMode maps each DMA buffer immediately before the transfer
	// and unmaps (with an IOTLB invalidation) right after — the dynamic
	// mode the paper notes is "known to cause even worse IOTLB misses".
	// Every DMA pays a mapping update plus an invalidation round, and
	// its translation always cold-misses.
	StrictMode
)

func (m MapMode) String() string {
	if m == StrictMode {
		return "strict"
	}
	return "loose"
}

// Config configures the IOMMU. The defaults mirror the paper's testbed:
// a 128-entry IOTLB.
type Config struct {
	// Enabled turns address translation on. When false, Translate
	// completes immediately with zero misses (the "IOMMU OFF" datapath).
	Enabled bool
	// Mode selects loose (default, the paper's setup) or strict per-DMA
	// mapping management.
	Mode MapMode
	// StrictMapLatency is the software+hardware cost of one map/unmap
	// pair in strict mode (page-table update plus a queued IOTLB
	// invalidation); measurements put this in the microsecond range.
	StrictMapLatency sim.Duration
	// TLBEntries is the IOTLB capacity (paper: 128).
	TLBEntries int
	// TLBWays is the set associativity of the IOTLB.
	TLBWays int
	// TLBHitLatency is the cost of an IOTLB hit (a few ns).
	TLBHitLatency sim.Duration
	// PWCEntriesPerLevel sizes the page-walk caches for the upper levels;
	// a PWC hit skips that level's memory access.
	PWCEntriesPerLevel int
	// DeviceTLBEntries, when > 0, enables an ATS-style translation cache
	// on the device; hits there bypass the IOMMU entirely (§4(a)).
	DeviceTLBEntries int
	// WalkEntryBytes is the size of each page-table read (one cache line).
	WalkEntryBytes int
	// WalkStepLatency is the walker's fixed cost per page-table read on
	// top of the memory access itself (walker occupancy, root-complex
	// round trips). Measured IOTLB miss penalties run from a few hundred
	// ns up to a microsecond (§3.1).
	WalkStepLatency sim.Duration
}

// DefaultConfig returns the paper-testbed IOMMU configuration (enabled).
func DefaultConfig() Config {
	return Config{
		Enabled:            true,
		Mode:               LooseMode,
		StrictMapLatency:   900 * sim.Nanosecond,
		TLBEntries:         128,
		TLBWays:            128, // fully associative, as in real IOTLBs
		TLBHitLatency:      2 * sim.Nanosecond,
		PWCEntriesPerLevel: 32,
		WalkEntryBytes:     64,
		WalkStepLatency:    400 * sim.Nanosecond,
	}
}

func (c Config) validate() error {
	if !c.Enabled {
		return nil
	}
	if c.TLBEntries <= 0 {
		return fmt.Errorf("iommu: TLBEntries must be positive")
	}
	if c.TLBWays <= 0 || c.TLBEntries%c.TLBWays != 0 {
		return fmt.Errorf("iommu: TLBWays %d must divide TLBEntries %d", c.TLBWays, c.TLBEntries)
	}
	if c.PWCEntriesPerLevel < 0 || c.DeviceTLBEntries < 0 {
		return fmt.Errorf("iommu: negative cache size")
	}
	if c.WalkEntryBytes <= 0 {
		return fmt.Errorf("iommu: WalkEntryBytes must be positive")
	}
	if c.WalkStepLatency < 0 {
		return fmt.Errorf("iommu: negative WalkStepLatency")
	}
	if c.Mode == StrictMode && c.StrictMapLatency <= 0 {
		return fmt.Errorf("iommu: strict mode requires positive StrictMapLatency")
	}
	return nil
}

// tlbKey identifies a translation: virtual page number tagged with the
// page size so 4K and 2M entries never alias.
type tlbKey uint64

func makeKey(iova uint64, ps PageSize) tlbKey {
	return tlbKey(iova>>ps.Shift())<<1 | tlbKey(ps&1)
}

// tlb is a set-associative cache with per-set LRU replacement.
type tlb struct {
	ways  int
	sets  [][]tlbKey // each set is LRU-ordered, most recent first
	nsets int
}

func newTLB(entries, ways int) *tlb {
	nsets := entries / ways
	if nsets < 1 {
		nsets = 1
		ways = entries
	}
	sets := make([][]tlbKey, nsets)
	for i := range sets {
		sets[i] = make([]tlbKey, 0, ways)
	}
	return &tlb{ways: ways, sets: sets, nsets: nsets}
}

// setIndex hashes the key before reducing modulo the set count: region
// bases sit at large power-of-two strides, and an unhashed modulo would
// alias every thread's pages into a handful of sets.
func (t *tlb) setIndex(k tlbKey) uint64 {
	// Fibonacci hashing: the multiply pushes entropy toward the high
	// bits, so the index must come from the top of the word.
	h := uint64(k) * 0x9e3779b97f4a7c15
	return (h >> 40) % uint64(t.nsets)
}

// lookup probes the cache and refreshes LRU order on hit.
func (t *tlb) lookup(k tlbKey) bool {
	idx := t.setIndex(k)
	s := t.sets[idx]
	for i, e := range s {
		if e == k {
			// Move to front.
			copy(s[1:i+1], s[:i])
			s[0] = k
			return true
		}
	}
	return false
}

// insert installs k, evicting the least recently used way if needed.
func (t *tlb) insert(k tlbKey) {
	idx := t.setIndex(k)
	s := t.sets[idx]
	for _, e := range s {
		if e == k {
			return // already present (lookup+insert race in chained walks)
		}
	}
	if len(s) < t.ways {
		s = append(s, 0)
	}
	copy(s[1:], s)
	s[0] = k
	t.sets[idx] = s
}

// invalidate removes k if present.
func (t *tlb) invalidate(k tlbKey) {
	idx := t.setIndex(k)
	s := t.sets[idx]
	for i, e := range s {
		if e == k {
			t.sets[idx] = append(s[:i], s[i+1:]...)
			return
		}
	}
}

// flush empties the cache.
func (t *tlb) flush() {
	for i := range t.sets {
		t.sets[i] = t.sets[i][:0]
	}
}

// lruCache is a tiny fully-associative LRU used for the page-walk caches.
type lruCache struct {
	capacity int
	order    []uint64
}

func newLRU(capacity int) *lruCache { return &lruCache{capacity: capacity} }

func (l *lruCache) lookup(k uint64) bool {
	if l.capacity == 0 {
		return false
	}
	for i, e := range l.order {
		if e == k {
			copy(l.order[1:i+1], l.order[:i])
			l.order[0] = k
			return true
		}
	}
	return false
}

func (l *lruCache) insert(k uint64) {
	if l.capacity == 0 {
		return
	}
	for _, e := range l.order {
		if e == k {
			return
		}
	}
	if len(l.order) < l.capacity {
		l.order = append(l.order, 0)
	}
	copy(l.order[1:], l.order)
	l.order[0] = k
}

// mapping records one registered IOVA region.
type mapping struct {
	base, size uint64
	ps         PageSize
}

// TranslationResult reports what one Translate call cost.
type TranslationResult struct {
	// Pages is how many distinct pages the DMA touched.
	Pages int
	// Misses is the number of IOTLB misses incurred.
	Misses int
	// WalkAccesses is the number of page-table memory reads performed.
	WalkAccesses int
	// Fault is non-nil if any touched address was not mapped.
	Fault error
}

// IOMMU is the translation unit. It is driven by the single-threaded
// simulation engine; methods must not be called from other goroutines.
type IOMMU struct {
	engine *sim.Engine
	memory *mem.Controller
	cfg    Config

	iotlb  *tlb
	devTLB *tlb
	// pwc[i] caches the page-table level that a full 4-level walk visits
	// i-th (0 = root level). A hit skips that level's memory read.
	pwc []*lruCache

	mappings []mapping

	// free recycles translation records, so a steady-state DMA stream
	// translates without allocating.
	free []*translation

	// missEWMA tracks recent misses per translation (per-event EWMA, so
	// it stays deterministic and tick-free). Drop attribution reads it to
	// decide whether the IOTLB was thrashing when a packet was dropped.
	missEWMA float64

	translations *metrics.Counter
	strictMaps   *metrics.Counter
	hits         *metrics.Counter
	misses       *metrics.Counter
	devHits      *metrics.Counter
	walkReads    *metrics.Counter
	faults       *metrics.Counter
	mappedPages  *metrics.Gauge
}

// New constructs an IOMMU attached to the given memory controller.
func New(engine *sim.Engine, memory *mem.Controller, reg *metrics.Registry, cfg Config) (*IOMMU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	u := &IOMMU{
		engine:       engine,
		memory:       memory,
		cfg:          cfg,
		translations: reg.Counter("iommu.translations"),
		strictMaps:   reg.Counter("iommu.strict.maps"),
		hits:         reg.Counter("iommu.iotlb.hits"),
		misses:       reg.Counter("iommu.iotlb.misses"),
		devHits:      reg.Counter("iommu.devtlb.hits"),
		walkReads:    reg.Counter("iommu.walk.reads"),
		faults:       reg.Counter("iommu.faults"),
		mappedPages:  reg.Gauge("iommu.mapped.pages"),
	}
	if cfg.Enabled {
		u.iotlb = newTLB(cfg.TLBEntries, cfg.TLBWays)
		if cfg.DeviceTLBEntries > 0 {
			ways := 8
			if cfg.DeviceTLBEntries < ways {
				ways = cfg.DeviceTLBEntries
			}
			for cfg.DeviceTLBEntries%ways != 0 {
				ways--
			}
			u.devTLB = newTLB(cfg.DeviceTLBEntries, ways)
		}
		u.pwc = make([]*lruCache, 3) // levels above the leaf
		for i := range u.pwc {
			u.pwc[i] = newLRU(cfg.PWCEntriesPerLevel)
		}
	}
	return u, nil
}

// Enabled reports whether translation is active.
func (u *IOMMU) Enabled() bool { return u.cfg.Enabled }

// ResidentKeys returns the IOTLB's resident translation keys in
// deterministic order: sets ascending, within each set least-recently
// used first, so that PrimeKeys replaying the slice reproduces the
// donor's exact LRU stack. It is the IOMMU half of a steady-state
// checkpoint — the working set a converged run has pulled into the
// IOTLB, which a cold start re-faults over the whole ramp. Returns nil
// when translation is disabled.
func (u *IOMMU) ResidentKeys() []uint64 {
	if u.iotlb == nil {
		return nil
	}
	var keys []uint64
	for _, s := range u.iotlb.sets {
		for i := len(s) - 1; i >= 0; i-- {
			keys = append(keys, uint64(s[i]))
		}
	}
	return keys
}

// PrimeKeys seeds the IOTLB with a donor run's resident keys before the
// warm-started run begins. Inserts bypass the hit/miss counters and pay
// no walk latency — the donor run already paid for these translations.
// Keys whose set has filled simply evict LRU entries like any insert,
// so a donor captured under a different TLB geometry still primes
// safely. No-op when translation is disabled.
func (u *IOMMU) PrimeKeys(keys []uint64) {
	if u.iotlb == nil {
		return
	}
	for _, k := range keys {
		u.iotlb.insert(tlbKey(k))
	}
}

// missEWMAAlpha weights the recent-miss estimator: ~128 translations of
// memory, i.e. a few tens of packets at ~5 translations each — long
// enough to smooth per-packet noise, short enough to track the onset of
// thrashing within tens of microseconds at line rate.
const missEWMAAlpha = 1.0 / 128

// observeMiss folds one translated page into the recent-miss estimator.
func (u *IOMMU) observeMiss(missed bool) {
	v := 0.0
	if missed {
		v = 1
	}
	u.missEWMA += missEWMAAlpha * (v - u.missEWMA)
}

// RecentMissRate returns the recent misses-per-translation estimate in
// [0,1]. It is 0 while the IOMMU is disabled or idle.
func (u *IOMMU) RecentMissRate() float64 { return u.missEWMA }

// MapRegion registers [base, base+size) with the given page granularity,
// in the style of the loose-mode upfront registration the paper's stack
// uses. base must be aligned to the page size. Overlapping regions are
// rejected.
func (u *IOMMU) MapRegion(base, size uint64, ps PageSize) error {
	if size == 0 {
		return fmt.Errorf("iommu: empty region")
	}
	if base%ps.Bytes() != 0 {
		return fmt.Errorf("iommu: base %#x not aligned to %s page", base, ps)
	}
	end := base + size
	for _, m := range u.mappings {
		if base < m.base+m.size && m.base < end {
			return fmt.Errorf("iommu: region [%#x,%#x) overlaps existing [%#x,%#x)",
				base, end, m.base, m.base+m.size)
		}
	}
	u.mappings = append(u.mappings, mapping{base: base, size: size, ps: ps})
	u.mappedPages.Add(int64((size + ps.Bytes() - 1) / ps.Bytes()))
	return nil
}

// UnmapRegion removes a previously mapped region and flushes the caches
// (dynamic unmapping requires IOTLB invalidation, which is why production
// stacks avoid it; provided for completeness and tests).
func (u *IOMMU) UnmapRegion(base uint64) error {
	for i, m := range u.mappings {
		if m.base == base {
			u.mappings = append(u.mappings[:i], u.mappings[i+1:]...)
			u.mappedPages.Add(-int64((m.size + m.ps.Bytes() - 1) / m.ps.Bytes()))
			if u.iotlb != nil {
				for off := uint64(0); off < m.size; off += m.ps.Bytes() {
					u.iotlb.invalidate(makeKey(m.base+off, m.ps))
				}
			}
			if u.devTLB != nil {
				u.devTLB.flush()
			}
			return nil
		}
	}
	return fmt.Errorf("iommu: no region mapped at %#x", base)
}

// MappedPages returns the total number of currently registered pages —
// the working-set size that competes for the 128 IOTLB entries.
func (u *IOMMU) MappedPages() int64 { return u.mappedPages.Value() }

// regionFor finds the mapping containing iova, or nil.
func (u *IOMMU) regionFor(iova uint64) *mapping {
	for i := range u.mappings {
		m := &u.mappings[i]
		if iova >= m.base && iova < m.base+m.size {
			return m
		}
	}
	return nil
}

// Translate resolves every page touched by a DMA of size bytes starting
// at iova, then invokes done with the aggregate result. With the IOMMU
// disabled it completes immediately (descriptors carry physical
// addresses). With it enabled, each page is looked up in the device TLB
// (if any), then the IOTLB; misses trigger a page walk whose memory reads
// go through the memory controller and therefore feel its current load.
//
// done is held until the translation completes; callers on the hot path
// pass a func value they bound once, so a translation allocates nothing.
func (u *IOMMU) Translate(iova uint64, size int, done func(TranslationResult)) {
	if size <= 0 {
		panic("iommu: non-positive DMA size")
	}
	if !u.cfg.Enabled {
		done(TranslationResult{Pages: 1})
		return
	}
	if u.cfg.Mode == StrictMode {
		u.translateStrict(iova, size, done)
		return
	}
	m := u.regionFor(iova)
	if m == nil {
		u.faults.Inc()
		done(TranslationResult{Fault: fmt.Errorf("iommu: DMA fault at %#x (unmapped)", iova)})
		return
	}
	// Enumerate the distinct pages the DMA touches within the region's
	// granularity. A fault mid-DMA aborts the remainder.
	first := iova >> m.ps.Shift()
	last := (iova + uint64(size) - 1) >> m.ps.Shift()
	t := u.newTranslation(first, last, m, done)
	t.translatePage()
}

// translation is the state of one in-flight Translate call: the page
// cursor, the accumulated result and the page walk in progress. Its
// step methods are bound to func values once, when the record is
// created, and those same values are handed to the engine and the
// memory controller at every step; a finished record returns to its
// IOMMU's free list.
type translation struct {
	u          *IOMMU
	page, last uint64
	m          *mapping // nil in strict mode
	res        TranslationResult
	done       func(TranslationResult)
	key        tlbKey // page being walked (loose mode)
	walkLeft   int    // page-table reads still to issue

	nextFn, strictFn, readFn, stepFn func()
}

func (u *IOMMU) newTranslation(first, last uint64, m *mapping, done func(TranslationResult)) *translation {
	var t *translation
	if n := len(u.free); n > 0 {
		t = u.free[n-1]
		u.free = u.free[:n-1]
	} else {
		t = &translation{u: u}
		t.nextFn = t.next
		t.strictFn = t.strictPage
		t.readFn = t.walkRead
		t.stepFn = t.walkStep
	}
	t.page, t.last, t.m, t.done = first, last, m, done
	t.res = TranslationResult{Pages: int(last - first + 1)}
	return t
}

// finish recycles the record and reports the result. The record is
// back on the free list before done runs, so done may translate again.
func (t *translation) finish() {
	res, done := t.res, t.done
	t.m, t.done = nil, nil
	t.u.free = append(t.u.free, t)
	done(res)
}

// translateStrict performs the per-DMA map → translate → unmap cycle of
// strict mode. The freshly created mapping has no cached translation, so
// every touched page cold-misses and walks; the unmap queues an IOTLB
// invalidation whose latency is folded into StrictMapLatency. Because
// mappings are transient, strict mode also ignores the registered-region
// table: any address is mappable (protection comes from the per-DMA
// windows themselves).
func (u *IOMMU) translateStrict(iova uint64, size int, done func(TranslationResult)) {
	// Strict-mode DMA windows are 4 KB-mapped regardless of backing.
	first := iova >> Page4K.Shift()
	last := (iova + uint64(size) - 1) >> Page4K.Shift()
	t := u.newTranslation(first, last, nil, done)
	u.strictMaps.Inc()
	u.engine.After(u.cfg.StrictMapLatency, t.strictFn)
}

// strictPage walks the next freshly mapped page, or completes once every
// page of the window has cold-missed and walked.
func (t *translation) strictPage() {
	u := t.u
	if t.res.Misses == t.res.Pages {
		t.finish()
		return
	}
	u.translations.Inc()
	u.misses.Inc()
	u.observeMiss(true)
	t.res.Misses++
	// The fresh mapping shares upper levels with previous windows, so
	// the PWC usually covers them; the leaf is always read.
	t.res.WalkAccesses++
	t.walkLeft = 1
	t.walk()
}

// translatePage resolves pages [page, last] sequentially (hardware
// pipelines these, but sequential resolution both simplifies the model and
// matches the per-DMA latency accounting of §3.1's throughput bound).
func (t *translation) translatePage() {
	u, m := t.u, t.m
	iova := t.page << m.ps.Shift()
	if mm := u.regionFor(iova); mm == nil {
		u.faults.Inc()
		t.res.Fault = fmt.Errorf("iommu: DMA fault at %#x (unmapped)", iova)
		t.finish()
		return
	}
	u.translations.Inc()
	key := makeKey(iova, m.ps)

	if u.devTLB != nil && u.devTLB.lookup(key) {
		u.devHits.Inc()
		u.observeMiss(false)
		t.next()
		return
	}
	if u.iotlb.lookup(key) {
		u.hits.Inc()
		u.observeMiss(false)
		if u.devTLB != nil {
			u.devTLB.insert(key)
		}
		// A hit costs a few ns; fold it in as a scheduled step so hit
		// latency still appears in the DMA timeline.
		u.engine.After(u.cfg.TLBHitLatency, t.nextFn)
		return
	}

	// IOTLB miss: walk the levels not covered by the page-walk caches.
	u.misses.Inc()
	u.observeMiss(true)
	t.res.Misses++
	reads := u.walkReadsNeeded(iova, m.ps)
	t.res.WalkAccesses += reads
	t.key = key
	t.walkLeft = reads
	t.walk()
}

// next advances to the following page or completes.
func (t *translation) next() {
	if t.page == t.last {
		t.finish()
		return
	}
	t.page++
	t.translatePage()
}

// walk performs the remaining page-table reads one after another through
// the memory controller, each followed by the walker's fixed step cost,
// then completes the page. Sequential chaining is what couples walk cost
// to memory-bus load (§3.2's "larger PCIe latencies further degrade the
// throughput").
func (t *translation) walk() {
	u := t.u
	if t.walkLeft == 0 {
		if t.m == nil {
			t.strictPage()
			return
		}
		u.iotlb.insert(t.key)
		if u.devTLB != nil {
			u.devTLB.insert(t.key)
		}
		t.next()
		return
	}
	u.walkReads.Inc()
	u.memory.Read(u.cfg.WalkEntryBytes, t.readFn)
}

// walkRead runs when a page-table read returns: the walker's fixed step
// cost follows before the next read.
func (t *translation) walkRead() { t.u.engine.After(t.u.cfg.WalkStepLatency, t.stepFn) }

// walkStep completes one page-table level.
func (t *translation) walkStep() {
	t.walkLeft--
	t.walk()
}

// walkReadsNeeded consults the page-walk caches: each upper level hit
// skips one memory read; the leaf level is always read. It also installs
// the upper-level entries (a real walker caches as it descends).
func (u *IOMMU) walkReadsNeeded(iova uint64, ps PageSize) int {
	levels := ps.WalkLevels()
	reads := 1 // leaf entry is always fetched on an IOTLB miss
	for lvl := 0; lvl < levels-1; lvl++ {
		// Key each level by the address bits above that level's reach:
		// L0 (root) covers 39+9 bits per level below it.
		shift := uint(12 + 9*(3-lvl)) // 39, 30, 21 for levels 0,1,2
		k := iova>>shift<<3 | uint64(lvl)
		if !u.pwc[lvl].lookup(k) {
			reads++
			u.pwc[lvl].insert(k)
		}
	}
	return reads
}

// Stats is a snapshot of translation activity.
type Stats struct {
	Translations uint64
	Hits         uint64
	Misses       uint64
	DeviceHits   uint64
	WalkReads    uint64
	Faults       uint64
}

// Stats returns current counters.
func (u *IOMMU) Stats() Stats {
	return Stats{
		Translations: u.translations.Value(),
		Hits:         u.hits.Value(),
		Misses:       u.misses.Value(),
		DeviceHits:   u.devHits.Value(),
		WalkReads:    u.walkReads.Value(),
		Faults:       u.faults.Value(),
	}
}
