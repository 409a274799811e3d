package gf128

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestMulTable8MatchesMul pins the 8-bit table multiplier to the bit-serial
// oracle over random operand pairs: for every (x, h),
// x.MulTable8(NewProductTable8(h)) must equal x.Mul(h).
func TestMulTable8MatchesMul(t *testing.T) {
	f := func(x, h [16]byte) bool {
		xe, he := FromBytes(x[:]), FromBytes(h[:])
		tbl := NewProductTable8(he)
		return xe.MulTable8(&tbl) == xe.Mul(he)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestMulTable8KnownProduct replays the McGrew–Viega vector used for Mul.
func TestMulTable8KnownProduct(t *testing.T) {
	h := elemFromHex(t, "66e94bd4ef8a2c3b884cfa59ca342b2e")
	c := elemFromHex(t, "0388dace60b6a392f328c2b971b2fe78")
	tbl := NewProductTable8(h)
	got := c.MulTable8(&tbl).Bytes()
	want, _ := hex.DecodeString("5e2ec746917062882c85b0685353deb7")
	if !bytes.Equal(got[:], want) {
		t.Errorf("8-bit table product = %x, want %x", got, want)
	}
}

// TestMulTable8IdentityZero checks the boundary elements for the 8-bit path.
func TestMulTable8IdentityZero(t *testing.T) {
	one := Element{Hi: 0x8000000000000000}
	oneTbl := NewProductTable8(one)
	zeroTbl := NewProductTable8(Element{})
	f := func(b [16]byte) bool {
		e := FromBytes(b[:])
		tbl := NewProductTable8(e)
		return e.MulTable8(&oneTbl) == e &&
			e.MulTable8(&zeroTbl).IsZero() &&
			(Element{}).MulTable8(&tbl).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReduce8MatchesMulX pins the generated reduction table against its
// definition: an 8-bit shift-and-fold of any accumulator must equal eight
// applications of mulX. This is the step MulTable8 performs between lookups.
func TestReduce8MatchesMulX(t *testing.T) {
	f := func(b [16]byte) bool {
		z := FromBytes(b[:])
		want := z
		for i := 0; i < 8; i++ {
			want = mulX(want)
		}
		got := Element{
			Lo: z.Lo>>8 | z.Hi<<56,
			Hi: z.Hi>>8 ^ reduce8[z.Lo&0xff],
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestRev8IsInvolution sanity-checks the byte bit-reversal table: applying
// it twice is the identity and each single bit lands in its mirror slot.
func TestRev8IsInvolution(t *testing.T) {
	for i := 0; i < 256; i++ {
		if rev8[rev8[i]] != byte(i) {
			t.Fatalf("rev8 is not an involution at %d", i)
		}
	}
	for b := 0; b < 8; b++ {
		if got, want := rev8[1<<b], byte(0x80>>b); got != want {
			t.Fatalf("rev8[%#x] = %#x, want %#x", 1<<b, got, want)
		}
	}
}

// TestGHASHTable8MatchesGHASH pins the zero-alloc 8-bit one-shot against the
// incremental oracle path across ragged lengths.
func TestGHASHTable8MatchesGHASH(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		h := make([]byte, 16)
		rng.Read(h)
		aad := make([]byte, rng.Intn(70))
		ct := make([]byte, rng.Intn(70))
		rng.Read(aad)
		rng.Read(ct)
		t8 := NewProductTable8(FromBytes(h))
		got := GHASHTable8(&t8, aad, ct)
		want := GHASH(h, aad, ct)
		if got != want {
			t.Fatalf("len(aad)=%d len(ct)=%d: GHASHTable8 = %x, GHASH = %x",
				len(aad), len(ct), got, want)
		}
	}
}

// TestGHASHTable8ZeroAlloc: the per-block MAC path calls GHASHTable8 for
// every memory transfer, so it must never touch the heap.
func TestGHASHTable8ZeroAlloc(t *testing.T) {
	h := make([]byte, 16)
	for i := range h {
		h[i] = byte(i + 1)
	}
	tbl := NewProductTable8(FromBytes(h))
	ct := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		_ = GHASHTable8(&tbl, nil, ct)
	})
	if allocs != 0 {
		t.Errorf("GHASHTable8 allocates %.1f objects/op, want 0", allocs)
	}
}
