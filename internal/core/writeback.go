package core

import (
	"secmem/internal/config"
	"secmem/internal/counterstore"
	"secmem/internal/engine"
	"secmem/internal/sim"
)

// writeBackData writes a dirty data block back to memory: increment its
// counter (fetching and authenticating the counter block first if it was
// displaced — the Section 4.3 requirement), re-encrypt under the new
// counter, emit the block, and update its leaf MAC in the Merkle tree.
func (c *Controller) writeBackData(now sim.Time, addr uint64) {
	c.Stats.WriteBacks++
	c.mWB.Inc()
	if c.needCounters() {
		ctrReady, _ := c.counterReady(now, addr)
		ov := c.ctrs.Increment(addr)
		c.ctrs.CacheDirty(c.ctrs.CounterBlockAddr(addr))
		switch ov.Kind {
		case counterstore.PageOverflow:
			// The triggering block is handled by this very write-back, so
			// the page re-encryption skips it.
			c.pageReencrypt(now, ov.PageAddr, addr)
		case counterstore.FullOverflow:
			c.fullReencrypt(now)
		}
		if c.cfg.Enc != config.EncNone && c.cfg.Enc != config.EncDirect {
			// Encryption-pad AES work is charged (engine occupancy), but a
			// posted write sits in the write buffer while its pad computes,
			// so the bus reservation is not pushed into the future where it
			// would block younger demand fetches.
			c.aes.GenerateBlockPads(ctrReady)
		}
	}
	if c.cfg.Enc == config.EncDirect {
		c.aes.GenerateBlockPads(now)
	}
	c.store(now)
	if c.fn != nil {
		c.fn.onDataWriteBack(now, addr)
	}
	if c.cfg.Auth != config.AuthNone {
		c.updateParentMac(now, addr)
	}
}

// writeBackMeta writes a dirty metadata block (counter block, Merkle node,
// or derivative-counter block) back to memory. In-tree metadata advances
// its derivative counter and refreshes its own MAC in the parent node.
func (c *Controller) writeBackMeta(now sim.Time, addr uint64) {
	switch c.lay.RegionOf(addr) {
	case RegionCounter:
		c.Stats.CtrWriteBacks++
	case RegionMac:
		c.Stats.MacWriteBacks++
	case RegionDeriv:
		c.Stats.DerivWBs++
	}
	if c.cfg.Auth != config.AuthNone && c.inTree(addr) && c.ctrs != nil {
		// The block's MAC must change when its contents change; the
		// derivative counter provides the freshness. Its own counter block
		// (in the derivative region) must be on-chip. (SHA-1 without any
		// counter-mode encryption keeps no counters at all; its MACs hash
		// content and address only, as the prior-work schemes did.)
		c.counterReady(now, addr)
		c.ctrs.Increment(addr)
		c.ctrs.CacheDirty(c.ctrs.CounterBlockAddr(addr))
	}
	c.store(now)
	if c.fn != nil {
		c.fn.onMetaWriteBack(now, addr)
	}
	if c.cfg.Auth != config.AuthNone && c.inTree(addr) {
		c.updateParentMac(now, addr)
	}
}

// updateParentMac computes the new MAC for a just-written block and folds
// it into the parent tree node: on-chip parents are simply dirtied (the
// paper's deferred propagation), missing parents are fetched, verified, and
// installed dirty in L2.
func (c *Controller) updateParentMac(now sim.Time, addr uint64) {
	// MAC computation cost for the written block.
	var macDone sim.Time
	switch c.cfg.Auth {
	case config.AuthGCM:
		ctrReady, _ := c.counterReady(now, addr)
		padDone := c.aes.GeneratePad(ctrReady)
		macDone = padDone + engine.GCMAuthTail(BlockSize/16)
	case config.AuthSHA1:
		macDone = c.sha.Hash(now)
	}

	mac, _, ok := c.lay.Geo.Parent(addr)
	if !ok {
		// The block is the top tree node: its MAC lives in the on-chip
		// root register — no memory traffic.
		if c.fn != nil {
			c.fn.updateRoot(addr)
		}
		return
	}
	nc := c.nodeCache()
	if !nc.Contains(mac) {
		if c.forwardWB(mac) {
			// The parent's own write-back is still queued: forward it from
			// the write-back buffer (its on-chip copy was never discarded)
			// instead of reading stale memory.
			if ev, evicted := nc.Fill(mac, true); evicted {
				c.onNodeVictim(macDone, ev)
			}
		} else {
			// Fetch, verify, and install the parent before updating it.
			c.Stats.MacFetches++
			arrive := c.fetch(macDone)
			if c.fn != nil {
				c.fn.onMacFill(now, mac)
			}
			if ev, evicted := nc.Fill(mac, false); evicted {
				c.onNodeVictim(arrive, ev)
			}
			c.authChain(now, mac, arrive)
		}
	}
	nc.SetDirty(mac)
	if c.fn != nil {
		c.fn.updateParentSlot(addr)
	}
}

// pageReencrypt performs the split-counter page re-encryption of Section
// 4.2 under an RSR: blocks already in L2 are lazily dirtied; the rest are
// fetched, decrypted under the old major, re-encrypted under the new one,
// written straight back (uncached), and their MACs refreshed. skipAddr is
// the block whose write-back triggered the overflow; it is re-encrypted by
// that write-back itself.
func (c *Controller) pageReencrypt(now sim.Time, page, skipAddr uint64) {
	oldMajor, _ := c.ctrs.BumpMajor(page)
	r, start := c.rsrs.Allocate(now, page, oldMajor)
	completion := start
	for i := 0; i < c.cfg.PageBlocks; i++ {
		blk := page + uint64(i)*BlockSize
		if blk == skipAddr {
			r.MarkDone(i)
			c.rsrs.NoteOnChip()
			continue
		}
		if c.l2.Contains(blk) {
			// Lazy path: mark dirty; the natural write-back re-encrypts it
			// under the new major. No memory traffic at all.
			c.l2.SetDirty(blk)
			c.ctrs.ResetMinor(blk)
			r.MarkDone(i)
			c.rsrs.NoteOnChip()
			continue
		}
		// Fetch-decrypt-re-encrypt path.
		c.rsrs.NoteFetched()
		c.Stats.ReencFetches++
		arrive := c.fetch(start)
		// Decrypt pad under the old major counter (seed known at start).
		decPad := c.aes.GenerateBlockPads(start)
		dec := sim.Max(arrive, decPad) + 1
		if c.fn != nil {
			c.fn.onReencBlock(now, blk, oldMajor)
		}
		c.ctrs.ResetMinor(blk)
		// Encrypt pad under the new major; write straight back.
		encPad := c.aes.GenerateBlockPads(dec)
		wb := c.store(encPad + 1)
		c.Stats.ReencWrites++
		if c.cfg.Auth != config.AuthNone {
			c.updateParentMac(dec, blk)
		}
		r.MarkDone(i)
		end := wb + c.bus.Occupancy(BlockSize)
		if end > completion {
			completion = end
		}
	}
	c.rsrs.Complete(r, sim.Max(completion, start+1))
}

// fullReencrypt accounts a whole-memory re-encryption (monolithic or global
// counter wrap: the AES key must change). The freeze is not simulated
// inline — the paper's Figure 4 methodology counts Mono8b events at zero
// cost — but its analytic cost is accumulated so harnesses can charge it
// (ChargeMonoReenc), and functional mode really re-encrypts the backing
// store under the new key epoch.
func (c *Controller) fullReencrypt(now sim.Time) {
	c.Stats.FullReencEvents++
	blocks := c.lay.DataBytes / BlockSize
	// Each block must be read and rewritten; the bus bounds the rate.
	c.Stats.FreezeCycles += sim.Time(blocks) * 2 * c.bus.Occupancy(BlockSize)
	if c.fn != nil {
		c.fn.reencryptAll(now)
	}
}
