package core

import (
	"crypto/subtle"
	"sort"

	"secmem/internal/aescipher"
	"secmem/internal/blockmap"
	"secmem/internal/config"
	"secmem/internal/gcmmode"
	"secmem/internal/merkle"
	"secmem/internal/sha1sum"
	"secmem/internal/sim"
)

// Tamper records one detected authentication failure.
type Tamper struct {
	Cycle  sim.Time
	Addr   uint64
	Region Region
}

// functional is the byte-moving half of the controller. Every hook is
// invoked from the corresponding timing path, so the functional view of
// what is on-chip always matches the cache models.
type functional struct {
	c *Controller
	//secmemlint:secret — AES memory-encryption key (on-chip only)
	key [16]byte
	//secmemlint:secret — SHA-1 MAC key for the AuthSHA1 configuration
	shaKey []byte
	epoch  byte
	pads   *gcmmode.PadGen
	direct *aescipher.Cipher

	// plain holds decrypted data blocks currently resident on-chip; meta
	// holds the contents of on-chip Merkle nodes. Counter blocks are the
	// counter store's own images, which fills and write-backs copy whole.
	//
	//secmemlint:secret — plaintext cache-block contents; must never leave the chip unencrypted
	plain blockmap.Table
	meta  blockmap.Table

	root    merkle.Root
	tampers []Tamper
}

// chainLink is one node of a rebuild level batch: its memory image, the
// counter bound into its MAC, and (after the hash phase) the MAC itself.
type chainLink struct {
	addr    uint64
	ctr     uint64
	content [BlockSize]byte
	mac     [16]byte
	macLen  int
}

func newFunctional(c *Controller) *functional {
	f := &functional{c: c}
	// A fixed deterministic key keeps runs reproducible; key management is
	// explicitly out of the paper's scope (Section 4.4).
	for i := range f.key {
		f.key[i] = byte(i*67 + 13)
	}
	f.shaKey = []byte("secmem-sha1-authentication-key!!")
	f.rekey()
	return f
}

// rekey derives the pad generator for the current key epoch. A whole-memory
// re-encryption changes the epoch, which flows into both initialization
// vectors, giving the "new AES key" effect of prior-work counter overflow
// handling.
func (f *functional) rekey() {
	f.pads = gcmmode.NewAES128PadGen(f.key[:], 2*f.epoch, 2*f.epoch+1)
	f.direct = aescipher.MustNew(f.key[:])
}

func (f *functional) tamper(now sim.Time, addr uint64) {
	f.tampers = append(f.tampers, Tamper{Cycle: now, Addr: addr, Region: f.c.lay.RegionOf(addr)})
	f.c.Stats.TamperDetected++
	f.c.mTamper.Inc()
	f.c.rec.Instant("txn", "tamper", uint64(now))
}

// counterFor returns the counter value bound into a block's MAC and pad.
func (f *functional) counterFor(addr uint64) uint64 {
	if f.c.ctrs == nil {
		return 0
	}
	return f.c.ctrs.Value(addr)
}

// encrypt produces the memory image of a data block under counter ctr.
//
//secmemlint:hotpath
func (f *functional) encrypt(dst, src []byte, addr, ctr uint64) {
	switch f.c.cfg.Enc {
	case config.EncNone:
		copy(dst, src[:BlockSize])
	case config.EncDirect:
		for i := 0; i < BlockSize; i += 16 {
			f.direct.Encrypt(dst[i:], src[i:])
		}
	default:
		f.pads.EncryptBlock(dst, src, addr, ctr)
	}
}

// decrypt inverts encrypt.
//
//secmemlint:hotpath
func (f *functional) decrypt(dst, src []byte, addr, ctr uint64) {
	switch f.c.cfg.Enc {
	case config.EncNone:
		copy(dst, src[:BlockSize])
	case config.EncDirect:
		for i := 0; i < BlockSize; i += 16 {
			f.direct.Decrypt(dst[i:], src[i:])
		}
	default:
		f.pads.EncryptBlock(dst, src, addr, ctr) // counter mode is symmetric
	}
}

// computeMac fills mac with the authentication code for a block's memory
// image and returns its length in bytes (0 when authentication is off).
// The out-array form keeps per-transfer MAC generation off the heap on the
// GCM path — this is called for every fill, write-back, and tree walk step.
//
//secmemlint:hotpath
func (f *functional) computeMac(addr uint64, content []byte, ctr uint64, mac *[16]byte) int {
	switch f.c.cfg.Auth {
	case config.AuthGCM:
		tag, n := f.pads.MAC(content, addr, ctr, f.c.cfg.MACBits)
		*mac = tag
		return n
	case config.AuthSHA1:
		return copy(mac[:], sha1sum.MAC(f.shaKey, addr, ctr, content, f.c.cfg.MACBits))
	default:
		return 0
	}
}

// verify checks a fetched block's MAC against its parent, walking up the
// tree through off-chip parents until an on-chip node or the root register.
// Blocks this run never stored (written false; they read as zero) are
// skipped: their MACs were never initialized, exactly like real memory
// before first use.
func (f *functional) verify(now sim.Time, addr uint64, content []byte, ctr uint64, written bool) bool {
	if !written {
		return true
	}
	var mac [16]byte
	n := f.computeMac(addr, content, ctr, &mac)
	parent, slot, ok := f.c.lay.Geo.Parent(addr)
	if !ok {
		want, set := f.root.Get()
		if !set {
			return true
		}
		if subtle.ConstantTimeCompare(mac[:n], want) != 1 {
			f.tamper(now, addr)
			return false
		}
		return true
	}
	// Prefer the parent's trusted on-chip copy. One from untrusted memory
	// must itself be verified first.
	var pbuf [BlockSize]byte
	if m := f.meta.Get(parent); m != nil {
		pbuf = *m
	} else if written := f.c.mem.ReadBlock(parent, pbuf[:]); !f.verify(now, parent, pbuf[:], f.counterFor(parent), written) {
		return false
	}
	lo, hi := f.c.lay.Geo.MacOffset(slot)
	if subtle.ConstantTimeCompare(mac[:n], pbuf[lo:hi]) != 1 {
		f.tamper(now, addr)
		return false
	}
	return true
}

// --- fill hooks -----------------------------------------------------------

func (f *functional) onDataFill(now sim.Time, addr uint64) {
	var ct [BlockSize]byte
	written := f.c.mem.ReadBlock(addr, ct[:])
	ctr := f.counterFor(addr)
	if f.c.cfg.Auth != config.AuthNone {
		f.verify(now, addr, ct[:], ctr, written) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	}
	pt, _ := f.plain.Put(addr)
	f.decrypt(pt[:], ct[:], addr, ctr)
}

func (f *functional) onMacFill(now sim.Time, addr uint64) {
	buf, _ := f.meta.Put(addr)
	written := f.c.mem.ReadBlock(addr, buf[:])
	f.verify(now, addr, buf[:], f.counterFor(addr), written) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
}

func (f *functional) onCounterFill(now sim.Time, ctrBlk uint64) {
	var img [BlockSize]byte
	written := f.c.mem.ReadBlock(ctrBlk, img[:])
	if f.c.cfg.AuthenticateCounters && f.c.cfg.Auth != config.AuthNone && f.c.inTree(ctrBlk) {
		f.verify(now, ctrBlk, img[:], f.counterFor(ctrBlk), written) //secmemlint:ignore verifydrop verify records the tamper; the simulator continues to observe post-tamper behavior
	}
	// The hardware trusts what memory says: install the fetched counters.
	// Without counter authentication this is where a replayed counter block
	// silently rolls counters back — the Section 4.3 vulnerability.
	f.c.ctrs.UnpackBlock(ctrBlk, img[:])
}

// --- write-back hooks ------------------------------------------------------

func (f *functional) onDataWriteBack(now sim.Time, addr uint64) {
	var ct, zero [BlockSize]byte
	pt := f.plain.Get(addr)
	if pt == nil {
		pt = &zero
	}
	f.encrypt(ct[:], pt[:], addr, f.counterFor(addr))
	f.c.mem.WriteBlock(addr, ct[:])
	f.plain.Delete(addr)
}

func (f *functional) onMetaWriteBack(now sim.Time, addr uint64) {
	switch f.c.lay.RegionOf(addr) {
	case RegionMac:
		if m := f.meta.Get(addr); m != nil {
			f.c.mem.WriteBlock(addr, m[:])
			f.meta.Delete(addr)
		}
	default: // counter or derivative block: serialize current values
		img := f.c.ctrs.PackBlock(addr)
		f.c.mem.WriteBlock(addr, img[:])
	}
}

// onCleanEvict drops the on-chip copy of a clean block leaving the chip.
// Only data blocks have one in plain and only Merkle nodes one in meta.
func (f *functional) onCleanEvict(addr uint64) {
	switch f.c.lay.RegionOf(addr) {
	case RegionData:
		f.plain.Delete(addr)
	case RegionMac:
		f.meta.Delete(addr)
	}
}

// updateParentSlot recomputes the MAC of the block just written at addr
// (reading its fresh memory image) and stores it into the parent node's
// on-chip copy, which the timing path has just ensured is resident.
func (f *functional) updateParentSlot(addr uint64) {
	var content [BlockSize]byte
	f.c.mem.ReadBlock(addr, content[:])
	var mac [16]byte
	n := f.computeMac(addr, content[:], f.counterFor(addr), &mac)
	parent, slot, ok := f.c.lay.Geo.Parent(addr)
	if !ok {
		f.root.Set(mac[:n])
		return
	}
	node, onChip := f.meta.Put(parent)
	if !onChip {
		// The timing path fetched and filled the parent; mirror it.
		f.c.mem.ReadBlock(parent, node[:])
	}
	lo, hi := f.c.lay.Geo.MacOffset(slot)
	copy(node[lo:hi], mac[:n])
}

// onReencBlock moves one off-chip block of a re-encrypting page from the
// old major counter to the new one. Called before the minor is reset, so
// the old counter is still reconstructible.
func (f *functional) onReencBlock(now sim.Time, blk, oldMajor uint64) {
	var ct, pt [BlockSize]byte
	written := f.c.mem.ReadBlock(blk, ct[:])
	oldCtr := f.c.ctrs.ValueWithMajor(blk, oldMajor)
	if f.c.cfg.Auth != config.AuthNone {
		f.verify(now, blk, ct[:], oldCtr, written) //secmemlint:ignore verifydrop verify records the tamper; re-encryption proceeds to observe post-tamper behavior
	}
	f.decrypt(pt[:], ct[:], blk, oldCtr)
	// New counter: the already-bumped major with a zeroed minor.
	page := f.c.ctrs.PageAddr(blk)
	newCtr := f.c.ctrs.ValueWithMajor(blk, f.c.ctrs.Major(page))
	newCtr &^= (1 << uint(f.c.cfg.MinorBits)) - 1
	var ct2 [BlockSize]byte
	f.encrypt(ct2[:], pt[:], blk, newCtr)
	f.c.mem.WriteBlock(blk, ct2[:])
}

// reencryptAll re-encrypts the entire backing store under a new key epoch
// (monolithic/global counter wrap) and rebuilds the Merkle tree, since
// every MAC is keyed by the epoch too.
func (f *functional) reencryptAll(now sim.Time) {
	// Phase 1: recover plaintext of every written data block under the old
	// epoch (on-chip copies are already plaintext).
	type rec struct {
		addr uint64
		pt   [BlockSize]byte
	}
	var blocks []rec
	f.c.mem.ForEachBlock(func(addr uint64) {
		if f.c.lay.RegionOf(addr) != RegionData {
			return
		}
		var r rec
		r.addr = addr
		if p := f.plain.Get(addr); p != nil {
			r.pt = *p
		} else {
			var ct [BlockSize]byte
			f.c.mem.ReadBlock(addr, ct[:])
			f.decrypt(r.pt[:], ct[:], addr, f.counterFor(addr))
		}
		blocks = append(blocks, r)
	})
	// Phase 2: switch epochs and write every block back encrypted under
	// the new one. Each image depends only on its own block's plaintext
	// and counter, so the visiting order does not matter.
	f.epoch++
	f.rekey()
	for _, r := range blocks {
		var ct [BlockSize]byte
		f.encrypt(ct[:], r.pt[:], r.addr, f.counterFor(r.addr))
		f.c.mem.WriteBlock(r.addr, ct[:])
	}
	if f.c.cfg.Auth != config.AuthNone {
		f.rebuildTree(now)
	}
}

// rebuildTree recomputes every MAC bottom-up for all written blocks (the
// epoch key change invalidates them all).
func (f *functional) rebuildTree(now sim.Time) {
	geo := f.c.lay.Geo
	// Collect written in-tree blocks per level (-1 = leaves), including
	// nodes that exist only as on-chip copies.
	level := make(map[int][]uint64)
	add := func(addr uint64) {
		if addr >= geo.LeafBytes {
			if f.c.lay.RegionOf(addr) == RegionMac {
				l := geo.LevelOf(addr)
				if _, seen := sliceContains(level[l], addr); !seen {
					level[l] = append(level[l], addr)
				}
			}
			return
		}
		if _, seen := sliceContains(level[-1], addr); !seen {
			level[-1] = append(level[-1], addr)
		}
	}
	f.c.mem.ForEachBlock(add)
	f.meta.ForEach(add)
	var batch []chainLink
	for l := -1; l < geo.NumLevels(); l++ {
		blocks := level[l]
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		// Level batch, in three phases. Applying a level's MACs only writes
		// into the next level up (parent slots), never into this level, so
		// gathering the whole level's contents up front reads exactly the
		// bytes the one-at-a-time loop would.
		batch = batch[:0]
		for _, addr := range blocks {
			var lk chainLink
			if m := f.meta.Get(addr); m != nil {
				lk.content = *m
			} else if !f.c.mem.ReadBlock(addr, lk.content[:]) {
				continue
			}
			lk.addr, lk.ctr = addr, f.counterFor(addr)
			batch = append(batch, lk)
		}
		for i := range batch {
			lk := &batch[i]
			lk.macLen = f.computeMac(lk.addr, lk.content[:], lk.ctr, &lk.mac)
		}
		for i := range batch {
			addr := batch[i].addr
			mac, n := batch[i].mac, batch[i].macLen
			parent, slot, ok := geo.Parent(addr)
			if !ok {
				f.root.Set(mac[:n])
				continue
			}
			lo, hi := geo.MacOffset(slot)
			if m := f.meta.Get(parent); m != nil {
				copy(m[lo:hi], mac[:n])
				// The on-chip copy now differs from memory; it must be
				// written back eventually or the new MAC is lost.
				f.c.l2.SetDirty(parent)
			} else {
				var pc [BlockSize]byte
				f.c.mem.ReadBlock(parent, pc[:])
				copy(pc[lo:hi], mac[:n])
				f.c.mem.WriteBlock(parent, pc[:])
				if _, seen := sliceContains(level[geo.LevelOf(parent)], parent); !seen {
					level[geo.LevelOf(parent)] = append(level[geo.LevelOf(parent)], parent)
				}
			}
		}
	}
}

func sliceContains(s []uint64, v uint64) (int, bool) {
	for i, x := range s {
		if x == v {
			return i, true
		}
	}
	return 0, false
}

// Peek copies the current plaintext of an on-chip data block.
func (f *functional) peek(addr uint64, dst []byte) bool {
	p := f.plain.Get(addr)
	if p == nil {
		return false
	}
	copy(dst, p[:])
	return true
}

// Poke overwrites bytes within an on-chip data block's plaintext.
func (f *functional) poke(addr uint64, off int, src []byte) bool {
	p := f.plain.Get(addr)
	if p == nil {
		return false
	}
	copy(p[off:], src)
	return true
}
