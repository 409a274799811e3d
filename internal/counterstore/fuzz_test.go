package counterstore

import (
	"testing"
	"testing/quick"
)

// bitReader is the reference decoder of the counter-block format: a
// bit-serial, most-significant-bit-first reader, independent of the store's
// byte-wise field access.
type bitReader struct {
	buf []byte
	pos uint
}

func (r *bitReader) read(bits uint) uint64 {
	var v uint64
	for i := uint(0); i < bits; i++ {
		v <<= 1
		if r.buf[r.pos/8]>>(7-r.pos%8)&1 == 1 {
			v |= 1
		}
		r.pos++
	}
	return v
}

// layout is one counter-block format and the protected blocks one of its
// counter blocks covers: n counters of width bits each, starting at bit
// first (after a split block's 64-bit major), for the blocks base,
// base+64, ...
type layout struct {
	name  string
	cfg   Config
	base  uint64
	first uint
	width uint
	n     int
}

func layouts() []layout {
	r := regions()
	mono := func(bits int) layout {
		return layout{name: "mono", cfg: Config{Org: OrgMono, Bits: bits, Regions: r, Cache: snc},
			base: 4096, width: uint(bits), n: 512 / bits}
	}
	return []layout{
		{name: "split7", cfg: Config{Org: OrgSplit, MinorBits: 7, PageBlocks: 64, Regions: r, Cache: snc},
			base: 8192, first: 64, width: 7, n: 64},
		// The writeback-reenc geometry: 320 bits used, a 192-bit tail.
		{name: "split4", cfg: Config{Org: OrgSplit, MinorBits: 4, PageBlocks: 64, Regions: r, Cache: snc},
			base: 8192, first: 64, width: 4, n: 64},
		mono(8), mono(16), mono(32), mono(64),
		{name: "global", cfg: Config{Org: OrgGlobal, Bits: 32, Regions: r, Cache: snc},
			base: 1024, width: 64, n: 8},
		{name: "deriv", cfg: Config{Org: OrgSplit, MinorBits: 7, PageBlocks: 64, Regions: r, Cache: snc},
			base: r.MacBase, width: derivBits, n: derivPerBlock},
	}
}

// refDecode decodes img under l with the reference reader: the split major
// (zero for other layouts) and the n counter fields.
func refDecode(l layout, img []byte) (major uint64, fields []uint64) {
	br := &bitReader{buf: img}
	if l.first == 64 {
		major = br.read(64)
	}
	for i := 0; i < l.n; i++ {
		fields = append(fields, br.read(l.width))
	}
	return major, fields
}

// checkUnpack unpacks img under l and checks that every counter the store
// then reports equals the reference decode, and that packing what was
// unpacked returns the image.
func checkUnpack(t *testing.T, l layout, img []byte) {
	t.Helper()
	s := New(l.cfg)
	ctrBlock := s.CounterBlockAddr(l.base)
	s.UnpackBlock(ctrBlock, img)
	major, fields := refDecode(l, img)
	for i, v := range fields {
		addr := l.base + uint64(i)*BlockSize
		if l.first == 64 {
			v |= major << l.width
			if got := s.Major(addr); got != major {
				t.Fatalf("%s: Major(%#x) = %#x, reference %#x", l.name, addr, got, major)
			}
		}
		if got := s.Value(addr); got != v {
			t.Fatalf("%s: Value(%#x) = %#x, reference %#x", l.name, addr, got, v)
		}
	}
	back := s.PackBlock(ctrBlock)
	for i := range back {
		if back[i] != img[i] {
			t.Fatalf("%s: pack(unpack(img)) differs at byte %d: %#x != %#x", l.name, i, back[i], img[i])
		}
	}
}

// FuzzUnpackBlock feeds arbitrary 64-byte images, under every counter-block
// layout, to the deserializer — exactly what an attacker controls in the
// Section 4.3 threat model. It must never panic and must agree with the
// reference decoder.
func FuzzUnpackBlock(f *testing.F) {
	n := uint8(len(layouts()))
	f.Add(make([]byte, 64), uint8(0))
	f.Add(append(make([]byte, 63), 0xFF), uint8(1))
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed, n-1)
	f.Fuzz(func(t *testing.T, img []byte, sel uint8) {
		if len(img) < 64 {
			return
		}
		checkUnpack(t, layouts()[sel%n], img[:64])
	})
}

// FuzzMonoUnpack does the same for each monolithic width.
func FuzzMonoUnpack(f *testing.F) {
	f.Add(make([]byte, 64), uint8(8))
	f.Add(make([]byte, 64), uint8(64))
	f.Fuzz(func(t *testing.T, img []byte, bitsRaw uint8) {
		if len(img) < 64 {
			return
		}
		var mono []layout
		for _, l := range layouts() {
			if l.cfg.Org == OrgMono {
				mono = append(mono, l)
			}
		}
		checkUnpack(t, mono[int(bitsRaw)%len(mono)], img[:64])
	})
}

// TestIncrementTouchesOnlyItsField: under every layout, an increment of one
// block's counter changes no bit of the counter-block image outside that
// counter's own field.
func TestIncrementTouchesOnlyItsField(t *testing.T) {
	f := func(img [BlockSize]byte, sel, idx uint8) bool {
		l := layouts()[int(sel)%len(layouts())]
		s := New(l.cfg)
		i := int(idx) % l.n
		addr := l.base + uint64(i)*BlockSize
		ctrBlock := s.CounterBlockAddr(addr)
		s.UnpackBlock(ctrBlock, img[:])
		s.Increment(addr)
		after := s.PackBlock(ctrBlock)
		lo := l.first + uint(i)*l.width
		for bit := uint(0); bit < BlockSize*8; bit++ {
			if bit >= lo && bit < lo+l.width {
				continue
			}
			mask := byte(1) << (7 - bit%8)
			if img[bit/8]&mask != after[bit/8]&mask {
				t.Logf("%s: increment of counter %d changed bit %d", l.name, i, bit)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
