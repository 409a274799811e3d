// Package counterstore implements the counter organizations compared by the
// paper — split counters (the contribution), monolithic per-block counters
// of 8/16/32/64 bits (prior work), and a globally incremented counter — plus
// the on-chip counter cache (sequence-number cache) through which all of
// them are accessed, and the growth-rate accounting behind Table 2.
//
// The store's state is the 64-byte memory image of each counter block: the
// bytes a real controller holds on-chip, writes back, and (in functional
// mode) an attacker can roll back. Every counter is a bit field of one image,
// located by slot; the layouts are listed in pack.go. The store keeps
// functional values even in timing-only runs (they drive seed construction,
// overflow detection, and growth statistics). Merkle MAC blocks and counter
// blocks are covered by 16-bit derivative counters that share the counter
// cache but live in their own region (Section 4.3).
package counterstore

import (
	"fmt"

	"secmem/internal/blockmap"
	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/obsv"
	"secmem/internal/sim"
)

// BlockSize is the cache/memory block size in bytes.
const BlockSize = 64

// Derivative counters (Section 4.3) are 16 bits each, packed 32 to a
// block: wide enough that no metadata block plausibly wraps within a run,
// dense enough that the counter cache covers 2 KB of metadata per line.
const (
	derivBits     = 16
	derivPerBlock = BlockSize * 8 / derivBits
)

// Org is the counter organization.
type Org int

const (
	// OrgSplit is the paper's minor/major split counter.
	OrgSplit Org = iota
	// OrgMono is a monolithic per-block counter of Bits bits.
	OrgMono
	// OrgGlobal is a single on-chip counter; per-block values are stored for
	// decryption like 64-bit monolithic counters.
	OrgGlobal
)

// Regions tells the store where counter state lives in the physical address
// map and how to classify block addresses.
type Regions struct {
	// DataBytes is the size of the program-data region starting at 0.
	DataBytes uint64
	// DirectBase is the base of the direct-counter region.
	DirectBase uint64
	// MacBase is the base of the Merkle MAC region. Everything at or above
	// DirectBase (counter blocks and MAC blocks) is metadata covered by
	// derivative counters.
	MacBase uint64
	// DerivBase is the base of the derivative-counter region.
	DerivBase uint64
}

// Config parameterizes the store.
type Config struct {
	Org        Org
	Bits       int // monolithic/global counter width
	MinorBits  int // split minor width
	PageBlocks int // split encryption-page size in blocks
	Regions    Regions
	Cache      cache.Config // counter-cache geometry
}

// FromSystem derives the store configuration from a system config and the
// memory layout regions.
func FromSystem(sc config.SystemConfig, r Regions) Config {
	c := Config{
		Bits:       sc.MonoCounterBits,
		MinorBits:  sc.MinorBits,
		PageBlocks: sc.PageBlocks,
		Regions:    r,
		Cache:      sc.CounterCache,
	}
	switch sc.Enc {
	case config.EncCounterSplit:
		c.Org = OrgSplit
	case config.EncCounterGlobal:
		c.Org = OrgGlobal
	case config.EncCounterMono:
		c.Org = OrgMono
	default:
		// Authentication-only GCM (Figures 7 and 8) still maintains
		// per-block counters; they are organized as the paper's split
		// counters — that is the proposal being evaluated.
		c.Org = OrgSplit
	}
	return c
}

// OverflowKind classifies the consequence of a counter increment.
type OverflowKind int

const (
	// NoOverflow: the common case.
	NoOverflow OverflowKind = iota
	// PageOverflow: a split minor counter wrapped; the block's encryption
	// page must be re-encrypted under the next major counter.
	PageOverflow
	// FullOverflow: a monolithic or global counter wrapped; the whole
	// memory must be re-encrypted under a new key.
	FullOverflow
)

// Overflow describes an increment's overflow consequence.
type Overflow struct {
	Kind OverflowKind
	// PageAddr is the first data address of the affected encryption page
	// (PageOverflow only).
	PageAddr uint64
}

// LookupResult classifies a counter-cache access.
type LookupResult int

const (
	// Hit: counter on-chip and ready.
	Hit LookupResult = iota
	// HalfMiss: counter block already being fetched; ready when the
	// outstanding fetch completes. (The paper's Figure 6 "half miss".)
	HalfMiss
	// Miss: counter block must be fetched from memory.
	Miss
)

// Stats accumulates counter activity.
type Stats struct {
	Hits       uint64
	HalfMisses uint64
	Misses     uint64

	Increments      uint64 // data-block counter increments (write-backs)
	DerivIncrements uint64 // MAC-block counter increments
	MinorOverflows  uint64 // split: page re-encryptions triggered
	FullOverflows   uint64 // mono/global: whole-memory re-encryptions
}

// HitRate is hits over all lookups.
func (s Stats) HitRate() float64 {
	n := s.Hits + s.HalfMisses + s.Misses
	if n == 0 {
		return 1
	}
	return float64(s.Hits) / float64(n)
}

// Store holds all counter state for one simulated machine.
type Store struct {
	cfg Config

	// blocks maps a counter-block address to its 64-byte memory image, the
	// only copy of the counters it holds; an absent block reads as zero.
	// Counters are read and updated in place through the image pointer.
	blocks blockmap.Table
	zero   [BlockSize]byte // the image of every block not stored yet; never written
	global uint64          // the on-chip global counter (OrgGlobal)

	// Data-counter layout, fixed by the organization (see slot).
	perBlock uint64 // data blocks per counter block
	first    uint   // bit offset of the first data counter (after a split major)
	width    uint   // data counter width in bits

	// growth accounting (Table 2): per-data-block increment counts.
	incr    map[uint64]uint64
	maxIncr uint64

	cache   *cache.Cache
	pending map[uint64]sim.Time // counter block addr -> fetch completion

	// Observability handles; nil-safe.
	mHit      *obsv.Counter
	mHalfMiss *obsv.Counter
	mMiss     *obsv.Counter
	mIncr     *obsv.Counter
	mOverflow *obsv.Counter

	Stats Stats
}

// Instrument registers the counter cache's metrics in reg (may be nil).
func (s *Store) Instrument(reg *obsv.Registry) {
	s.mHit = reg.Counter("ctrcache.hit")
	s.mHalfMiss = reg.Counter("ctrcache.halfmiss")
	s.mMiss = reg.Counter("ctrcache.miss")
	s.mIncr = reg.Counter("ctrcache.incr")
	s.mOverflow = reg.Counter("ctrcache.overflow")
}

// New builds a store.
func New(cfg Config) *Store {
	var perBlock uint64
	first, width := uint(0), uint(cfg.Bits)
	switch {
	case cfg.Org == OrgSplit:
		if cfg.MinorBits < 1 || cfg.MinorBits > 16 || cfg.PageBlocks <= 0 ||
			64+cfg.PageBlocks*cfg.MinorBits > BlockSize*8 {
			panic(fmt.Sprintf("counterstore: bad split geometry %+v", cfg))
		}
		perBlock, first, width = uint64(cfg.PageBlocks), 64, uint(cfg.MinorBits)
	case cfg.Bits != 8 && cfg.Bits != 16 && cfg.Bits != 32 && cfg.Bits != 64:
		panic(fmt.Sprintf("counterstore: bad counter width %d", cfg.Bits))
	case cfg.Org == OrgGlobal:
		width = 64 // stored per-block values are full width for decryption
	}
	if perBlock == 0 {
		perBlock = BlockSize * 8 / uint64(width)
	}
	return &Store{
		cfg:      cfg,
		perBlock: perBlock,
		first:    first,
		width:    width,
		incr:     make(map[uint64]uint64),
		cache:    cache.New(cfg.Cache),
		pending:  make(map[uint64]sim.Time),
	}
}

// Config returns the store configuration.
func (s *Store) Config() Config { return s.cfg }

// Cache exposes the counter cache for statistics reporting.
func (s *Store) Cache() *cache.Cache { return s.cache }

// PageAddr returns the first data address of the encryption page holding
// addr (split organization).
func (s *Store) PageAddr(addr uint64) uint64 {
	pageBytes := uint64(s.cfg.PageBlocks) * BlockSize
	return addr / pageBytes * pageBytes
}

// slot locates the counter of a protected block: the counter block holding
// it and the field's bit offset and width within that block's image. Data
// blocks use the organization's layout in the direct-counter region;
// metadata blocks (counter blocks and Merkle MAC blocks, everything at or
// above DirectBase) use derivative counters in their own region.
func (s *Store) slot(addr uint64) (ctrBlock uint64, off, width uint) {
	r := s.cfg.Regions
	if addr >= r.DirectBase {
		i := (addr - r.DirectBase) / BlockSize
		return r.DerivBase + i/derivPerBlock*BlockSize, uint(i%derivPerBlock) * derivBits, derivBits
	}
	i := addr / BlockSize
	return r.DirectBase + i/s.perBlock*BlockSize, s.first + uint(i%s.perBlock)*s.width, s.width
}

// CounterBlockAddr maps a protected block to the memory block holding its
// counter.
func (s *Store) CounterBlockAddr(addr uint64) uint64 {
	ctrBlock, _, _ := s.slot(addr)
	return ctrBlock
}

// image returns the counter block's image for reading only: the stored one,
// or the all-zero image of a block never stored.
func (s *Store) image(ctrBlock uint64) *[BlockSize]byte {
	if img := s.blocks.Get(ctrBlock); img != nil {
		return img
	}
	return &s.zero
}

// Value returns the current counter value for a protected block, as used in
// the encryption/authentication seed. Split counters concatenate major and
// minor (major << minorBits | minor).
func (s *Store) Value(addr uint64) uint64 {
	ctrBlock, off, width := s.slot(addr)
	img := s.image(ctrBlock)
	v := getBits(img, off, width)
	if s.cfg.Org == OrgSplit && addr < s.cfg.Regions.DirectBase {
		v |= getBits(img, 0, 64) << width
	}
	return v
}

// ValueWithMajor returns a split-counter value under an explicit major (the
// RSR uses the page's old major to decrypt blocks during re-encryption).
func (s *Store) ValueWithMajor(addr, major uint64) uint64 {
	ctrBlock, off, width := s.slot(addr)
	return major<<width | getBits(s.image(ctrBlock), off, width)
}

// Major returns the page's current major counter.
func (s *Store) Major(pageAddr uint64) uint64 {
	return getBits(s.image(s.CounterBlockAddr(pageAddr)), 0, 64)
}

// Increment advances the block's counter for a write-back and reports any
// overflow consequence. For split counters, a wrapping minor is left at zero
// and the overflow handler (the RSR machinery in the core package) must call
// BumpMajor to advance the page; the returned overflow identifies the page.
// A derivative counter is its 16-bit field and never reports an overflow
// (DESIGN.md argues no metadata block wraps within a run).
func (s *Store) Increment(addr uint64) Overflow {
	ctrBlock, off, width := s.slot(addr)
	img, _ := s.blocks.Put(ctrBlock)
	v := getBits(img, off, width) + 1
	if addr >= s.cfg.Regions.DirectBase {
		setBits(img, off, width, v)
		s.Stats.DerivIncrements++
		return Overflow{}
	}
	s.Stats.Increments++
	s.mIncr.Inc()
	s.trackGrowth(addr)
	var ov Overflow
	if s.cfg.Org == OrgGlobal {
		s.global++
		if s.cfg.Bits < 64 && s.global >= 1<<uint(s.cfg.Bits) {
			s.global = 0
			ov.Kind = FullOverflow
		}
		v = s.global
	} else if width < 64 && v >= 1<<width {
		v = 0
		if s.cfg.Org == OrgSplit {
			ov = Overflow{Kind: PageOverflow, PageAddr: s.PageAddr(addr)}
		} else {
			ov.Kind = FullOverflow
		}
	}
	setBits(img, off, width, v)
	switch ov.Kind {
	case PageOverflow:
		s.Stats.MinorOverflows++
		s.mOverflow.Inc()
	case FullOverflow:
		s.Stats.FullOverflows++
		s.mOverflow.Inc()
	}
	return ov
}

// BumpMajor advances a page's major counter and zeroes nothing: minors are
// reset per block as the RSR processes them (ResetMinor), matching Section
// 4.2's lazy ordering. It returns the old and new major values.
func (s *Store) BumpMajor(pageAddr uint64) (oldMajor, newMajor uint64) {
	img, _ := s.blocks.Put(s.CounterBlockAddr(pageAddr))
	oldMajor = getBits(img, 0, 64)
	newMajor = oldMajor + 1
	setBits(img, 0, 64, newMajor)
	return oldMajor, newMajor
}

// ResetMinor zeroes a block's minor counter (called as each block of a
// re-encrypting page is handled).
func (s *Store) ResetMinor(addr uint64) {
	ctrBlock, off, width := s.slot(addr)
	if img := s.blocks.Get(ctrBlock); img != nil {
		setBits(img, off, width, 0)
	}
}

// ResetAll zeroes every counter; whole-memory re-encryption (monolithic
// overflow key change) starts all counters over under the new key.
func (s *Store) ResetAll() {
	s.blocks.Clear()
	s.global = 0
}

func (s *Store) trackGrowth(addr uint64) {
	if addr >= s.cfg.Regions.DataBytes {
		return
	}
	n := s.incr[addr] + 1
	s.incr[addr] = n
	s.maxIncr = max(s.maxIncr, n)
}

// FastestCounter returns the largest per-block increment count seen — the
// "fastest-advancing counter" of Table 2.
func (s *Store) FastestCounter() uint64 { return s.maxIncr }

// ForEachIncrement visits every data block's write-back count. The Section
// 6.1 work-ratio analysis derives whole-memory and per-page re-encryption
// rates from this distribution.
func (s *Store) ForEachIncrement(fn func(blockAddr, count uint64)) {
	for a, n := range s.incr {
		fn(a, n)
	}
}

// ---------------------------------------------------------------------------
// Counter cache (sequence-number cache).

// CacheLookup performs the counter-cache access for a protected block at
// cycle now. It returns the classification, the cycle at which the counter
// is available on-chip (for Hit and HalfMiss), and the counter block address
// (which the caller fetches on a Miss).
func (s *Store) CacheLookup(addr uint64, now sim.Time) (res LookupResult, readyAt sim.Time, ctrBlock uint64) {
	ctrBlock = s.CounterBlockAddr(addr)
	if s.cache.Lookup(ctrBlock, false) {
		// Skip the map probe outright when nothing is in flight — the
		// common case once fetches complete. No bulk staleness sweep here:
		// lookups are not monotone in now (background RSR fetches and
		// write-backs probe at earlier timestamps), so an entry that looks
		// stale to one access can still be a half-miss to another.
		if len(s.pending) != 0 {
			if t, ok := s.pending[ctrBlock]; ok {
				if t > now {
					s.Stats.HalfMisses++
					s.mHalfMiss.Inc()
					return HalfMiss, t, ctrBlock
				}
				delete(s.pending, ctrBlock)
			}
		}
		s.Stats.Hits++
		s.mHit.Inc()
		return Hit, now, ctrBlock
	}
	s.Stats.Misses++
	s.mMiss.Inc()
	return Miss, 0, ctrBlock
}

// CacheFill installs a fetched counter block that becomes valid at ready,
// returning any dirty victim that must be written back to memory.
func (s *Store) CacheFill(ctrBlock uint64, ready sim.Time) (ev cache.Eviction, evicted bool) {
	s.pending[ctrBlock] = ready
	ev, evicted = s.cache.Fill(ctrBlock, false)
	if evicted {
		// Only resident blocks consult pending, and the victim's next fill
		// overwrites its entry: dropping it keeps the map cache-sized.
		delete(s.pending, ev.Addr)
	}
	return ev, evicted
}

// CacheDirty marks a resident counter block dirty (a counter increment
// modifies it); absent blocks are ignored (the caller has already arranged
// the fetch).
func (s *Store) CacheDirty(ctrBlock uint64) { s.cache.SetDirty(ctrBlock) }
