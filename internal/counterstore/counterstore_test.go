package counterstore

import (
	"testing"
	"testing/quick"

	"secmem/internal/cache"
	"secmem/internal/config"
)

func regions() Regions {
	return Regions{
		DataBytes:  1 << 20,
		DirectBase: 1 << 20,
		MacBase:    2 << 20,
		DerivBase:  3 << 20,
	}
}

// snc is the counter-cache geometry of the test stores.
var snc = cache.Config{Name: "snc", SizeBytes: 4096, Ways: 8, BlockBytes: 64}

func splitStore() *Store {
	return New(Config{
		Org: OrgSplit, MinorBits: 7, PageBlocks: 64,
		Regions: regions(),
		Cache:   snc,
	})
}

func monoStore(bits int) *Store {
	return New(Config{
		Org: OrgMono, Bits: bits,
		Regions: regions(),
		Cache:   snc,
	})
}

func TestSplitValueConcatenatesMajorMinor(t *testing.T) {
	s := splitStore()
	const blk = 0x2040
	if got := s.Value(blk); got != 0 {
		t.Fatalf("initial value = %d", got)
	}
	if ov := s.Increment(blk); s.Value(blk) != 1 || ov.Kind != NoOverflow {
		t.Fatalf("first increment = (%d, %v)", s.Value(blk), ov)
	}
	s.BumpMajor(s.PageAddr(blk))
	if got := s.Value(blk); got != 1<<7|1 {
		t.Errorf("value after major bump = %d, want %d", got, 1<<7|1)
	}
	if got := s.ValueWithMajor(blk, 0); got != 1 {
		t.Errorf("ValueWithMajor(0) = %d, want 1", got)
	}
}

func TestSplitMinorOverflowTriggersPageReenc(t *testing.T) {
	s := splitStore()
	const blk = 64 * 100 // page 1 (blocks 64..127)
	var ov Overflow
	for i := 0; i < 127; i++ {
		ov = s.Increment(blk)
		if ov.Kind != NoOverflow {
			t.Fatalf("premature overflow at increment %d", i+1)
		}
	}
	ov = s.Increment(blk) // 128th: 7-bit minor wraps
	if ov.Kind != PageOverflow {
		t.Fatalf("no page overflow at wrap: %+v", ov)
	}
	if want := uint64(4096); ov.PageAddr != want {
		t.Errorf("page addr = %#x, want %#x", ov.PageAddr, want)
	}
	if m := s.ValueWithMajor(blk, 0); m != 0 {
		t.Errorf("minor not left at zero: %d", m)
	}
	if s.Stats.MinorOverflows != 1 {
		t.Errorf("minor overflows = %d", s.Stats.MinorOverflows)
	}
}

func TestMonoOverflow(t *testing.T) {
	s := monoStore(8)
	const blk = 0
	for i := 0; i < 255; i++ {
		if ov := s.Increment(blk); ov.Kind != NoOverflow {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	ov := s.Increment(blk)
	if ov.Kind != FullOverflow {
		t.Fatalf("256th increment: %+v", ov)
	}
	if s.Value(blk) != 0 {
		t.Errorf("counter not wrapped: %d", s.Value(blk))
	}
	if s.Stats.FullOverflows != 1 {
		t.Errorf("full overflows = %d", s.Stats.FullOverflows)
	}
}

func TestMono64NeverOverflows(t *testing.T) {
	s := monoStore(64)
	for i := 0; i < 1000; i++ {
		if ov := s.Increment(0); ov.Kind != NoOverflow {
			t.Fatal("64-bit counter overflowed")
		}
	}
	if s.Value(0) != 1000 {
		t.Errorf("value = %d", s.Value(0))
	}
}

func TestGlobalCounterSharedAcrossBlocks(t *testing.T) {
	s := New(Config{Org: OrgGlobal, Bits: 32, Regions: regions(),
		Cache: snc})
	for i, blk := range []uint64{0, 64, 0} {
		s.Increment(blk)
		if got := s.Value(blk); got != uint64(i+1) {
			t.Errorf("increment %d stored %d, want %d", i+1, got, i+1)
		}
	}
	// Stored per-block values are the encryption-time snapshots.
	if s.Value(64) != 2 {
		t.Errorf("stored value = %d, want 2", s.Value(64))
	}
}

func TestCounterBlockAddrDensity(t *testing.T) {
	r := regions()
	split := splitStore()
	// Split: one counter block per 4 KB page.
	if a, b := split.CounterBlockAddr(0), split.CounterBlockAddr(4095); a != b {
		t.Error("split: same page mapped to different counter blocks")
	}
	if a, b := split.CounterBlockAddr(0), split.CounterBlockAddr(4096); a == b {
		t.Error("split: adjacent pages share a counter block")
	}
	// Mono64: 8 counters per block -> 512B of data per counter block.
	m64 := monoStore(64)
	if a, b := m64.CounterBlockAddr(0), m64.CounterBlockAddr(511); a != b {
		t.Error("mono64: blocks within 512B straddle counter blocks")
	}
	if a, b := m64.CounterBlockAddr(0), m64.CounterBlockAddr(512); a == b {
		t.Error("mono64: 512B apart share a counter block")
	}
	// Mono8: 64 counters per block -> 4 KB of data per counter block, the
	// same reach as split (which is the point of the comparison).
	m8 := monoStore(8)
	if a, b := m8.CounterBlockAddr(0), m8.CounterBlockAddr(4095); a != b {
		t.Error("mono8: 4KB of data straddles counter blocks")
	}
	// MAC blocks map to the derivative region.
	if a := split.CounterBlockAddr(r.MacBase); a < r.DerivBase {
		t.Errorf("MAC counter at %#x, below derivative base", a)
	}
}

func TestDerivativeCountersIndependent(t *testing.T) {
	s := splitStore()
	mac := regions().MacBase + 128
	if ov := s.Increment(mac); ov.Kind != NoOverflow {
		t.Fatalf("deriv increment overflowed: %v", ov)
	}
	if s.Stats.DerivIncrements != 1 || s.Stats.Increments != 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
	if s.Value(mac) != 1 {
		t.Errorf("deriv value = %d", s.Value(mac))
	}
}

func TestGrowthTracking(t *testing.T) {
	s := monoStore(64)
	for i := 0; i < 10; i++ {
		s.Increment(0x40)
	}
	for i := 0; i < 3; i++ {
		s.Increment(0x80)
	}
	// MAC-block increments must not count toward data growth.
	s.Increment(regions().MacBase)
	if n := s.FastestCounter(); n != 10 {
		t.Errorf("fastest = %d, want 10", n)
	}
	if s.Stats.Increments != 13 {
		t.Errorf("total = %d, want 13", s.Stats.Increments)
	}
}

func TestCacheLookupHitMissHalfMiss(t *testing.T) {
	s := splitStore()
	res, _, ctrBlk := s.CacheLookup(0, 100)
	if res != Miss {
		t.Fatalf("first lookup = %v, want Miss", res)
	}
	// Fill completing at cycle 300.
	s.CacheFill(ctrBlk, 300)
	// Lookup at 200 while the fetch is outstanding: half miss ready at 300.
	res, ready, _ := s.CacheLookup(0, 200)
	if res != HalfMiss || ready != 300 {
		t.Fatalf("second lookup = (%v, %d), want (HalfMiss, 300)", res, ready)
	}
	// Lookup after completion: hit.
	res, ready, _ = s.CacheLookup(4000, 400) // same page -> same counter block
	if res != Hit || ready != 400 {
		t.Fatalf("third lookup = (%v, %d), want (Hit, 400)", res, ready)
	}
	st := s.Stats
	if st.Hits != 1 || st.HalfMisses != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 1.0/3 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

func TestCacheFillEviction(t *testing.T) {
	s := New(Config{
		Org: OrgSplit, MinorBits: 7, PageBlocks: 64,
		Regions: regions(),
		// Tiny fully-mapped cache: 2 blocks total.
		Cache: cache.Config{Name: "snc", SizeBytes: 128, Ways: 2, BlockBytes: 64},
	})
	_, _, b0 := s.CacheLookup(0, 0)
	s.CacheFill(b0, 10)
	s.CacheDirty(b0)
	_, _, b1 := s.CacheLookup(4096, 0)
	s.CacheFill(b1, 10)
	_, _, b2 := s.CacheLookup(8192, 0)
	ev, evicted := s.CacheFill(b2, 10)
	if !evicted || ev.Addr != b0 || !ev.Dirty {
		t.Errorf("eviction = %+v (%v), want dirty %#x", ev, evicted, b0)
	}
	if s.Cache().Contains(b0) {
		t.Error("evicted counter block still resident")
	}
	if _, ok := s.pending[b0]; ok {
		t.Error("evicted counter block keeps its fetch-completion entry")
	}
}

func TestResetAll(t *testing.T) {
	s := splitStore()
	s.Increment(0)
	s.BumpMajor(0)
	s.ResetAll()
	if s.Value(0) != 0 || s.Major(0) != 0 {
		t.Error("ResetAll left state behind")
	}
}

func TestSeedUniquenessAcrossWritebacks(t *testing.T) {
	// Property: the sequence of (value) returned by repeated increments of
	// one block never repeats until a page re-encryption intervenes, and
	// with major bumps applied on overflow it never repeats at all. This is
	// the pad-reuse-freedom invariant the scheme's security rests on.
	f := func(nRaw uint16) bool {
		n := int(nRaw%2000) + 1
		s := splitStore()
		const blk = 0
		seen := map[uint64]bool{0: true} // initial value used by first encryption
		for i := 0; i < n; i++ {
			if ov := s.Increment(blk); ov.Kind == PageOverflow {
				s.BumpMajor(s.PageAddr(blk))
			}
			v := s.Value(blk)
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFromSystem(t *testing.T) {
	sc := config.Default()
	cs := FromSystem(sc, regions())
	if cs.Org != OrgSplit || cs.MinorBits != 7 || cs.PageBlocks != 64 {
		t.Errorf("split mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncCounterMono
	sc.MonoCounterBits = 16
	cs = FromSystem(sc, regions())
	if cs.Org != OrgMono || cs.Bits != 16 {
		t.Errorf("mono mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncCounterGlobal
	cs = FromSystem(sc, regions())
	if cs.Org != OrgGlobal {
		t.Errorf("global mapping wrong: %+v", cs)
	}
	sc.Enc = config.EncNone
	cs = FromSystem(sc, regions())
	if cs.Org != OrgSplit {
		t.Errorf("GCM-only mapping should be split: %+v", cs)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Org: OrgSplit, MinorBits: 0, PageBlocks: 64},
		{Org: OrgSplit, MinorBits: 8, PageBlocks: 64}, // 576 bits: exceeds one block
		{Org: OrgMono, Bits: 12},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad geometry %+v did not panic", cfg)
				}
			}()
			cfg.Regions = regions()
			New(cfg)
		}()
	}
}
