package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"secmem/internal/cache"
	"secmem/internal/config"
	"secmem/internal/dram"
)

// smallCfg returns a functional configuration small enough to exercise
// evictions and re-encryptions quickly.
func smallCfg() config.SystemConfig {
	cfg := config.Default()
	cfg.MemBytes = 1 << 20
	cfg.L1 = cache.Config{Name: "L1D", SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, LatencyCycles: 2}
	cfg.L2 = cache.Config{Name: "L2", SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, LatencyCycles: 10}
	cfg.CounterCache = cache.Config{Name: "SNC", SizeBytes: 1 << 10, Ways: 4, BlockBytes: 64, LatencyCycles: 2}
	cfg.Functional = true
	return cfg
}

func mustSystem(t *testing.T, cfg config.SystemConfig) *MemSystem {
	t.Helper()
	m, err := NewMemSystem(cfg)
	if err != nil {
		t.Fatalf("NewMemSystem: %v", err)
	}
	return m
}

func TestLayoutRegions(t *testing.T) {
	lay := NewLayout(config.Default())
	if lay.DataBytes != 512<<20 {
		t.Errorf("data bytes = %d", lay.DataBytes)
	}
	if lay.RegionOf(0) != RegionData || lay.RegionOf(lay.DataBytes-64) != RegionData {
		t.Error("data region misclassified")
	}
	if lay.RegionOf(lay.DirectBase) != RegionCounter {
		t.Error("counter region misclassified")
	}
	if lay.RegionOf(lay.MacBase) != RegionMac {
		t.Error("mac region misclassified")
	}
	if lay.RegionOf(lay.DerivBase) != RegionDeriv {
		t.Error("deriv region misclassified")
	}
	if lay.TotalBytes <= lay.DerivBase {
		t.Error("total does not cover deriv region")
	}
	// No authentication: no MAC region.
	lay2 := NewLayout(config.Baseline())
	if lay2.Geo != nil {
		t.Error("baseline layout has a Merkle geometry")
	}
}

func TestTimingHitVsMiss(t *testing.T) {
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	r1 := m.Access(0, 0x40, false)
	if !r1.L2Miss {
		t.Fatal("cold access not an L2 miss")
	}
	if r1.DataReady < cfg.MemLatencyCycles {
		t.Errorf("miss data ready at %d, faster than memory latency", r1.DataReady)
	}
	r2 := m.Access(r1.DataReady, 0x40, false)
	if r2.L2Miss {
		t.Fatal("second access missed")
	}
	if r2.DataReady != r1.DataReady+cfg.L1.LatencyCycles {
		t.Errorf("hit latency = %d", r2.DataReady-r1.DataReady)
	}
}

func TestCounterModeOverlapsDecryption(t *testing.T) {
	// With a counter-cache hit, counter-mode decryption must be roughly as
	// fast as no encryption; direct encryption pays the AES latency after
	// data arrival (Figure 1).
	mk := func(enc config.EncryptionMode) uint64 {
		cfg := smallCfg()
		cfg.Functional = false
		cfg.Enc = enc
		cfg.Auth = config.AuthNone
		cfg.AuthenticateCounters = false
		m := mustSystem(t, cfg)
		// Warm the counter cache with a first access.
		r := m.Access(0, 0x40, false)
		r = m.Access(r.DataReady+100, 0x1040, false) // same counter block page? different page, still fine
		r2 := m.Access(r.DataReady+5000, 0x80, false)
		return r2.DataReady - (r.DataReady + 5000)
	}
	plain := mk(config.EncNone)
	split := mk(config.EncCounterSplit)
	direct := mk(config.EncDirect)
	if direct <= plain+70 {
		t.Errorf("direct (%d) not ~AES latency slower than plain (%d)", direct, plain)
	}
	if split >= direct {
		t.Errorf("split (%d) not faster than direct (%d)", split, direct)
	}
	if split > plain+20 {
		t.Errorf("split with counter hit (%d) much slower than plain (%d)", split, plain)
	}
}

func TestFunctionalRoundTrip(t *testing.T) {
	m := mustSystem(t, smallCfg())
	msg := []byte("the quick brown fox jumps over the lazy dog 0123456789 ABCDEF!")
	if _, err := m.WriteBytes(0, 0x2000, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := m.ReadBytes(1000, 0x2000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("on-chip read = %q", got)
	}
	// Force everything off-chip, then read back through decryption.
	m.Drain(2000)
	if _, err := m.ReadBytes(3000, 0x2000, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("off-chip round trip = %q", got)
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("tamper events on honest run: %d", n)
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	m := mustSystem(t, smallCfg())
	msg := bytes.Repeat([]byte("secret! "), 8)
	m.WriteBytes(0, 0x3000, msg)
	m.Drain(100)
	var ct [64]byte
	m.Controller().DRAM().ReadBlock(0x3000, ct[:])
	if bytes.Contains(ct[:], []byte("secret")) {
		t.Fatal("plaintext visible in DRAM")
	}
	if ct == [64]byte{} {
		t.Fatal("ciphertext is zero")
	}
}

func TestFunctionalRoundTripAllSchemes(t *testing.T) {
	encs := []config.EncryptionMode{config.EncNone, config.EncDirect,
		config.EncCounterMono, config.EncCounterSplit, config.EncCounterGlobal}
	auths := []config.AuthMode{config.AuthNone, config.AuthSHA1, config.AuthGCM}
	for _, enc := range encs {
		for _, auth := range auths {
			cfg := smallCfg()
			cfg.Enc = enc
			cfg.Auth = auth
			if auth == config.AuthNone {
				cfg.AuthenticateCounters = false
			}
			name := cfg.SchemeName()
			t.Run(name, func(t *testing.T) {
				m := mustSystem(t, cfg)
				rng := rand.New(rand.NewSource(7))
				data := make([]byte, 4096)
				rng.Read(data)
				if _, err := m.WriteBytes(0, 0x8000, data); err != nil {
					t.Fatal(err)
				}
				m.Drain(500)
				got := make([]byte, len(data))
				if _, err := m.ReadBytes(1000, 0x8000, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("%s: round trip corrupted", name)
				}
				if n := m.Controller().Stats.TamperDetected; n != 0 {
					t.Fatalf("%s: spurious tamper: %d", name, n)
				}
			})
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{0xAA}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.FlipBit(0x1000, 13)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x1000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("bit flip not detected")
	}
	tampers := m.Controller().Tampers()
	if len(tampers) == 0 || tampers[0].Addr != 0x1000 {
		t.Fatalf("tamper log = %+v", tampers)
	}
}

func TestSpliceDetected(t *testing.T) {
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{1}, 64))
	m.WriteBytes(0, 0x2000, bytes.Repeat([]byte{2}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.Splice(0x1000, 0x2000)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x2000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("splice not detected")
	}
}

func TestDataReplayDetected(t *testing.T) {
	// Roll (data block) back to an old value while its MAC has moved on:
	// the classic replay the Merkle tree exists to stop.
	m := mustSystem(t, smallCfg())
	m.WriteBytes(0, 0x1000, bytes.Repeat([]byte{1}, 64))
	m.Drain(100)
	atk := dram.NewAttacker(m.Controller().DRAM())
	atk.Record(0x1000)
	m.WriteBytes(200, 0x1000, bytes.Repeat([]byte{9}, 64))
	m.Drain(300)
	atk.Replay(0x1000)
	buf := make([]byte, 64)
	m.ReadBytes(1000, 0x1000, buf)
	if m.Controller().Stats.TamperDetected == 0 {
		t.Fatal("data replay not detected")
	}
}

func TestPageReencryptionPreservesData(t *testing.T) {
	cfg := smallCfg()
	cfg.MinorBits = 2 // minors wrap after 4 write-backs: fast overflow
	m := mustSystem(t, cfg)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64) }
	// Write several blocks of one encryption page, then rewrite one block
	// repeatedly to force minor overflow and page re-encryption.
	for i := 0; i < 8; i++ {
		m.WriteBytes(0, uint64(0x4000+i*64), payload(i))
	}
	for w := 0; w < 12; w++ {
		m.WriteBytes(uint64(1000*w), 0x4000, payload(0))
		m.Drain(uint64(1000*w + 500))
	}
	if m.Controller().RSRs().Stats.PageReencs == 0 {
		t.Fatal("no page re-encryption happened")
	}
	// All blocks must still decrypt correctly.
	buf := make([]byte, 64)
	for i := 0; i < 8; i++ {
		if _, err := m.ReadBytes(100000, uint64(0x4000+i*64), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, payload(i)) {
			t.Fatalf("block %d corrupted after page re-encryption", i)
		}
	}
	if n := m.Controller().Stats.TamperDetected; n != 0 {
		t.Fatalf("spurious tamper during re-encryption: %d", n)
	}
}

// wrapCounters writes two blocks, then writes one of them back 256 times,
// which wraps an 8-bit monolithic or global counter.
func wrapCounters(t *testing.T, cfg config.SystemConfig) *MemSystem {
	t.Helper()
	m := mustSystem(t, cfg)
	m.WriteBytes(0, 0x5000, bytes.Repeat([]byte{0x77}, 64))
	m.WriteBytes(0, 0x9000, bytes.Repeat([]byte{0x33}, 64))
	m.Drain(10)
	for w := 0; w < 256; w++ {
		m.WriteBytes(uint64(100*w), 0x5000, bytes.Repeat([]byte{byte(w)}, 64))
		m.Drain(uint64(100*w + 50))
	}
	return m
}

func TestMonoOverflowWholeMemoryReencrypt(t *testing.T) {
	cfg := smallCfg()
	cfg.Enc = config.EncCounterMono
	cfg.MonoCounterBits = 8
	m := wrapCounters(t, cfg)
	st := m.Controller().Stats
	if st.FullReencEvents == 0 {
		t.Fatal("no whole-memory re-encryption")
	}
	if st.FreezeCycles == 0 {
		t.Fatal("freeze cycles not accounted")
	}
	// Data written before the key change must still read back.
	buf := make([]byte, 64)
	m.ReadBytes(1<<20, 0x9000, buf)
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x33}, 64)) {
		t.Fatal("pre-overflow data corrupted by key change")
	}
	if st.TamperDetected != 0 {
		t.Fatalf("spurious tamper: %d", st.TamperDetected)
	}
}

// TestWholeMemoryReencryptImage pins the DRAM image (data, counters and
// Merkle nodes) left by a whole-memory re-encryption: a sha256 over the
// written blocks' (address, bytes) pairs in address order.
func TestWholeMemoryReencryptImage(t *testing.T) {
	for _, c := range []struct {
		enc  config.EncryptionMode
		want string
	}{
		{config.EncCounterMono, "7b826b5fa31c007eb2069875634b26958500810fa3395e08ba7125625f1d908c"},
		{config.EncCounterGlobal, "05701aaa3a9327f9d82ccf5f9e543855800068aa76415455d0ba962814108aa7"},
	} {
		cfg := smallCfg()
		cfg.Enc = c.enc
		cfg.MonoCounterBits = 8
		m := wrapCounters(t, cfg)
		if m.Controller().Stats.FullReencEvents == 0 {
			t.Fatalf("%v: no whole-memory re-encryption", c.enc)
		}
		mem := m.Controller().mem
		var addrs []uint64
		mem.ForEachBlock(func(addr uint64) { addrs = append(addrs, addr) })
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		h := sha256.New()
		var blk [BlockSize]byte
		for _, a := range addrs {
			mem.ReadBlock(a, blk[:])
			h.Write(binary.BigEndian.AppendUint64(nil, a))
			h.Write(blk[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%v: DRAM image %s, want %s (%d blocks)", c.enc, got, c.want, len(addrs))
		}
	}
}

func TestSafeVsLazyAuthTiming(t *testing.T) {
	// AuthDone must trail DataReady when authentication is on and a miss
	// walks the tree.
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	r := m.Access(0, 0x40, false)
	if r.AuthDone < r.DataReady {
		t.Errorf("authDone %d before dataReady %d", r.AuthDone, r.DataReady)
	}
	if r.AuthDone == r.DataReady {
		t.Error("authentication appears free on a cold miss")
	}
}

func TestParallelAuthFasterThanSequential(t *testing.T) {
	run := func(parallel bool) uint64 {
		cfg := smallCfg()
		cfg.Functional = false
		cfg.ParallelAuth = parallel
		m := mustSystem(t, cfg)
		var worst uint64
		// Scatter accesses so the Merkle walk misses at several levels.
		for i := 0; i < 64; i++ {
			addr := uint64(i) * 12713 * 64 % cfg.MemBytes
			r := m.Access(uint64(i)*4000, m.L1().BlockAddr(addr), false)
			if d := r.AuthDone - r.DataReady; d > worst {
				worst = d
			}
		}
		return worst
	}
	par := run(true)
	seq := run(false)
	if par >= seq {
		t.Errorf("parallel worst-case auth lag (%d) not better than sequential (%d)", par, seq)
	}
}

func TestWriteBytesRequiresFunctional(t *testing.T) {
	cfg := smallCfg()
	cfg.Functional = false
	m := mustSystem(t, cfg)
	if _, err := m.WriteBytes(0, 0, []byte{1}); err == nil {
		t.Fatal("WriteBytes on timing-only system succeeded")
	}
	if _, err := m.ReadBytes(0, 0, make([]byte, 1)); err == nil {
		t.Fatal("ReadBytes on timing-only system succeeded")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := smallCfg()
	cfg.MACBits = 48
	if _, err := NewMemSystem(cfg); err == nil {
		t.Fatal("invalid MAC size accepted")
	}
}
