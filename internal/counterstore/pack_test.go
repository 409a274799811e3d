package counterstore

import (
	"testing"
	"testing/quick"
)

// incrementN advances addr's counter n times.
func incrementN(s *Store, addr uint64, n int) {
	for i := 0; i < n; i++ {
		s.Increment(addr)
	}
}

func TestSplitPackRoundTrip(t *testing.T) {
	f := func(majorSeed uint8, minorSeeds [8]uint8, blkSel uint8) bool {
		s := splitStore()
		page := uint64(blkSel%4) * 4096
		for i := 0; i < int(majorSeed%32); i++ {
			s.BumpMajor(page)
		}
		for i, m := range minorSeeds {
			incrementN(s, page+uint64(i)*64, int(m%128)) // 7-bit, no wrap
		}
		ctrBlk := s.CounterBlockAddr(page)
		img := s.PackBlock(ctrBlk)

		// Unpack into a fresh store and compare.
		s2 := splitStore()
		s2.UnpackBlock(ctrBlk, img[:])
		if s2.Major(page) != uint64(majorSeed%32) {
			return false
		}
		for i := 0; i < 64; i++ {
			if s2.Value(page+uint64(i)*64) != s.Value(page+uint64(i)*64) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSplitPackIsExactlyOneBlock(t *testing.T) {
	// 64-bit major + 64 x 7-bit minors = 512 bits: the last minor ends at
	// bit 511, so all 64 bytes are meaningful. An all-ones image is the
	// max-valued state, and the last block's minor is the final 7 bits.
	s := splitStore()
	ctrBlk := s.CounterBlockAddr(0)
	s.Increment(63 * 64)
	if img := s.PackBlock(ctrBlk); img[63] != 0x01 || img[62] != 0 {
		t.Fatalf("last minor = 1 packs to trailing bytes %#x %#x, want 0 0x1", img[62], img[63])
	}
	var ones [BlockSize]byte
	for i := range ones {
		ones[i] = 0xFF
	}
	s.UnpackBlock(ctrBlk, ones[:])
	if s.Major(0) != ^uint64(0) {
		t.Fatalf("major = %#x, want all ones", s.Major(0))
	}
	for i := uint64(0); i < 64; i++ {
		if m := s.ValueWithMajor(i*64, 0); m != 127 {
			t.Fatalf("minor %d = %d, want 127 (512-bit exact pack)", i, m)
		}
	}
	if s.PackBlock(ctrBlk) != ones {
		t.Fatal("max-valued state does not pack to all ones")
	}
}

func TestMonoPackRoundTrip(t *testing.T) {
	for _, bits := range []int{8, 16, 32, 64} {
		s := monoStore(bits)
		perBlock := 512 / bits
		for i := 0; i < perBlock; i++ {
			incrementN(s, uint64(i)*64, (i*37+1)&(1<<uint(bits)-1))
		}
		ctrBlk := s.CounterBlockAddr(0)
		img := s.PackBlock(ctrBlk)
		s2 := monoStore(bits)
		s2.UnpackBlock(ctrBlk, img[:])
		for i := 0; i < perBlock; i++ {
			a := uint64(i) * 64
			if s2.Value(a) != s.Value(a) {
				t.Errorf("bits=%d counter %d: %d != %d", bits, i, s2.Value(a), s.Value(a))
			}
		}
	}
}

func TestDerivPackRoundTrip(t *testing.T) {
	s := splitStore()
	r := regions()
	// Derivative counters cover metadata blocks starting at DirectBase,
	// 32 16-bit counters per block.
	for i := 0; i < 32; i++ {
		incrementN(s, r.DirectBase+uint64(i)*64, i*1000+5)
	}
	ctrBlk := s.CounterBlockAddr(r.DirectBase)
	if ctrBlk < r.DerivBase {
		t.Fatalf("metadata counter block %#x below deriv base", ctrBlk)
	}
	if other := s.CounterBlockAddr(r.DirectBase + 31*64); other != ctrBlk {
		t.Fatalf("32 metadata blocks must share one deriv block: %#x vs %#x", other, ctrBlk)
	}
	img := s.PackBlock(ctrBlk)
	s2 := splitStore()
	s2.UnpackBlock(ctrBlk, img[:])
	for i := 0; i < 32; i++ {
		a := r.DirectBase + uint64(i)*64
		if want := uint64(i*1000 + 5); s2.Value(a) != want {
			t.Errorf("deriv counter %d: %d != %d", i, s2.Value(a), want)
		}
	}
}

// TestDerivativeCounterSurvivesMemory pins that the on-chip derivative
// counter is the 16-bit field memory holds: past 2^16 increments, a round
// trip through the packed image must not change the value the MAC uses,
// or the next fetch of the metadata block would fail its own MAC.
func TestDerivativeCounterSurvivesMemory(t *testing.T) {
	s := splitStore()
	mac := regions().MacBase + 64
	incrementN(s, mac, 1<<16+5)
	before := s.Value(mac)
	ctrBlk := s.CounterBlockAddr(mac)
	img := s.PackBlock(ctrBlk)
	s.UnpackBlock(ctrBlk, img[:])
	if after := s.Value(mac); after != before {
		t.Fatalf("derivative counter changed across pack/unpack: %d -> %d", before, after)
	}
}

func TestPackNonCounterBlockPanics(t *testing.T) {
	r := regions()
	for _, tc := range []struct {
		region string
		addr   uint64
	}{
		{"data", 0x40},
		{"MAC region start", r.MacBase},
		{"MAC region end", r.DerivBase - BlockSize},
	} {
		for _, op := range []struct {
			name string
			fn   func(*Store, uint64)
		}{
			{"PackBlock", func(s *Store, a uint64) { s.PackBlock(a) }},
			{"UnpackBlock", func(s *Store, a uint64) { s.UnpackBlock(a, make([]byte, BlockSize)) }},
		} {
			t.Run(op.name+"/"+tc.region, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s(%#x) did not panic", op.name, tc.addr)
					}
				}()
				op.fn(splitStore(), tc.addr)
			})
		}
	}
}

func TestUnpackShortImagePanics(t *testing.T) {
	s := splitStore()
	defer func() {
		if recover() == nil {
			t.Fatal("short image did not panic")
		}
	}()
	s.UnpackBlock(s.CounterBlockAddr(0), make([]byte, 10))
}

func TestCounterReplayViaUnpack(t *testing.T) {
	// The attack surface end-to-end at the store level: pack, advance the
	// counter, then unpack the stale image — the counter rolls back.
	s := splitStore()
	s.Increment(0)
	ctrBlk := s.CounterBlockAddr(0)
	old := s.PackBlock(ctrBlk)
	s.Increment(0)
	if s.Value(0) != 2 {
		t.Fatalf("value = %d", s.Value(0))
	}
	s.UnpackBlock(ctrBlk, old[:]) // attacker replays the old counter block
	if s.Value(0) != 1 {
		t.Fatalf("replay did not roll counter back: %d", s.Value(0))
	}
}
