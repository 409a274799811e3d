package core

import (
	"testing"

	"secmem/internal/config"
	"secmem/internal/sim"
)

// TestFunctionalHotRootsZeroAlloc pins the functional layer's
// //secmemlint:hotpath roots — the encrypt, decrypt and MAC the controller
// runs on every fill, write-back and tree-walk step — to zero heap
// allocations per call. ESCAPE.json audits the same roots with the
// compiler's escape analysis; this runtime count also sees growth the
// escape report does not show, such as an append outgrowing its buffer.
// encrypt/decrypt run on the default Split+GCM machine and on Direct
// encryption; computeMac runs on GCM only, because the SHA-1 comparator's
// one digest allocation per MAC is sanctioned in sha1sum.
func TestFunctionalHotRootsZeroAlloc(t *testing.T) {
	for _, enc := range []config.EncryptionMode{config.EncCounterSplit, config.EncDirect} {
		cfg := config.Default()
		cfg.Functional = true
		cfg.Enc = enc
		c, err := NewController(cfg)
		if err != nil {
			t.Fatalf("%v: NewController: %v", enc, err)
		}
		f := c.fn
		src := make([]byte, BlockSize)
		dst := make([]byte, BlockSize)
		var mac [16]byte
		cases := []struct {
			name string
			fn   func()
		}{
			{"encrypt", func() { f.encrypt(dst, src, 0x40, 7) }},
			{"decrypt", func() { f.decrypt(src, dst, 0x40, 7) }},
			{"computeMac", func() { f.computeMac(0x40, dst, 7, &mac) }},
		}
		for _, tc := range cases {
			tc.fn() // warm any one-time paths before measuring
			if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
				t.Errorf("%s+%s: %s allocates %.1f objects/op, want 0", enc, cfg.Auth, tc.name, allocs)
			}
		}
	}
}

// TestFunctionalFillCycleZeroAlloc pins the functional layer's per-transfer
// byte moves to zero heap allocations once the blocks involved have been
// seen: a data fill (DRAM read, MAC verify, decrypt into the on-chip copy),
// a counter increment and write-back (encrypt, DRAM write, parent MAC
// update), a second fill and a clean eviction, on blocks written before.
// The DRAM image, the on-chip copies and the counter images then reuse
// their table slots and images.
func TestFunctionalFillCycleZeroAlloc(t *testing.T) {
	cfg := config.Default()
	cfg.Functional = true
	c, err := NewController(cfg)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	f := c.fn
	var now sim.Time
	addr := uint64(0)
	cycle := func() {
		now += 1000
		f.onDataFill(now, addr)
		c.ctrs.Increment(addr)
		f.onDataWriteBack(now, addr)
		f.updateParentSlot(addr)
		f.onDataFill(now, addr)
		f.onCleanEvict(addr)
		addr = (addr + BlockSize) % (16 * BlockSize)
	}
	for i := 0; i < 16; i++ {
		cycle() // write every block once and grow the tables
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("fill/write-back/evict cycle allocates %.1f objects/op, want 0", allocs)
	}
	if n := len(c.Tampers()); n != 0 {
		t.Fatalf("honest cycle recorded %d tamper events", n)
	}
}
