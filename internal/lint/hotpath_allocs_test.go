package lint

import (
	"strings"
	"testing"

	"secmem/internal/aescipher"
	"secmem/internal/gcmmode"
	"secmem/internal/gf128"
)

// TestHotpathVerdictsMatchAllocsPerRun cross-checks the hotpathalloc
// analyzer's lexical zero-allocation verdict against the runtime truth:
// every //secmemlint:hotpath root the repository gate holds clean
// (TestRepositoryClean) must also measure zero allocations per
// steady-state call under testing.AllocsPerRun. The two views fail in
// opposite directions — the analyzer is an over-approximation that cannot
// see escape analysis, AllocsPerRun sees only the inputs exercised here —
// so a disagreement means either the analyzer grew a blind spot or a hot
// kernel actually regressed.
func TestHotpathVerdictsMatchAllocsPerRun(t *testing.T) {
	roots := make(map[string]HotFunc)
	for _, h := range HotPathAudit(loadRepo(t)) {
		if h.Root {
			roots[h.Func] = h
		}
	}

	key := []byte("0123456789abcdef")
	cipher := aescipher.MustNew(key)
	aead := gcmmode.NewAEAD(cipher)
	pg := gcmmode.NewAES128PadGen(key, 0x01, 0x02)
	h := gf128.Element{Hi: 0x66e94bd4ef8a2c3b, Lo: 0x884cfa59ca342b2e}
	pt8 := gf128.NewProductTable8(h)
	x := gf128.Element{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210}
	aad := make([]byte, 16)
	ct := make([]byte, 64)
	nonce := make([]byte, gcmmode.NonceSize)
	plaintext := make([]byte, 64)
	sealBuf := make([]byte, 0, len(plaintext)+gcmmode.TagSize)
	sealed := aead.Seal(nil, nonce, plaintext, aad)
	openBuf := make([]byte, 0, len(plaintext))
	var sinkE gf128.Element
	var blk [16]byte

	cases := []struct {
		root string // types.Func.FullName, as HotPathAudit reports it
		run  func()
	}{
		{"(secmem/internal/gf128.Element).MulTable8", func() { sinkE = x.MulTable8(&pt8) }},
		{"secmem/internal/gf128.GHASHTable8", func() { blk = gf128.GHASHTable8(&pt8, aad, ct) }},
		{"(*secmem/internal/aescipher.Cipher).Encrypt", func() { cipher.Encrypt(blk[:], blk[:]) }},
		{"(*secmem/internal/gcmmode.PadGen).BlockPad", func() { _ = pg.BlockPad(0x1000, 7) }},
		{"(*secmem/internal/gcmmode.PadGen).BlockPads", func() {
			var pads [4 * gcmmode.MemBlockSize]byte
			var ctrs [4]uint64
			pg.BlockPads(pads[:], 0x1000, ctrs[:])
		}},
		{"(*secmem/internal/gcmmode.PadGen).AuthPad", func() { _ = pg.AuthPad(0x1000, 7) }},
		{"(*secmem/internal/gcmmode.PadGen).MAC", func() { _, _ = pg.MAC(ct, 0x1000, 7, 64) }},
		{"(*secmem/internal/gcmmode.AEAD).Seal", func() { _ = aead.Seal(sealBuf, nonce, plaintext, aad) }},
		{"(*secmem/internal/gcmmode.AEAD).Open", func() {
			if _, err := aead.Open(openBuf, nonce, sealed, aad); err != nil {
				t.Error("Open rejected its own Seal output:", err)
			}
		}},
	}

	exercised := make(map[string]bool, len(cases))
	for _, c := range cases {
		exercised[c.root] = true
		hf, ok := roots[c.root]
		if !ok {
			t.Errorf("%s is cross-checked here but carries no //secmemlint:hotpath annotation; the table and the audit drifted apart", c.root)
			continue
		}
		if hf.Suppressed {
			continue
		}
		c.run() // warm any one-time paths before measuring
		if n := testing.AllocsPerRun(100, c.run); n != 0 {
			t.Errorf("%s: hotpathalloc holds it zero-alloc but AllocsPerRun measured %.1f allocs/op", c.root, n)
		}
	}
	// Every annotated root must have a runtime cross-check. The core
	// functional-model closures are unexported and exercised through the
	// harness campaign instead; everything else missing here is a gap.
	for name := range roots {
		if strings.Contains(name, "/core.") || exercised[name] {
			continue
		}
		t.Errorf("annotated root %s has no AllocsPerRun cross-check; add a table entry", name)
	}
	_ = sinkE
}
