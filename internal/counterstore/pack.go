package counterstore

import "fmt"

// This file holds the byte-level format of counter blocks. The processor
// trusts what it reads from memory, so in functional mode the simulated DRAM
// holds real counter bytes that the attacker can roll back — exactly the
// Section 4.3 counter-replay surface. The store keeps every counter block as
// that very image, so packing and unpacking are copies.
//
// Fields are bit-contiguous and big-endian, most significant bit first:
//
//   - split: a 64-bit major, then PageBlocks minors of MinorBits each — for
//     the paper's 7-bit minors and 64-block pages exactly 512 bits;
//   - monolithic: 512/Bits counters of Bits bits;
//   - global: 8 per-block 64-bit snapshots of the global counter;
//   - derivative (metadata blocks): 32 counters of 16 bits.
//
// Bits a layout leaves unused (e.g. the tail after 4-bit minors) are kept as
// stored; MACs cover the whole image.

// PackBlock returns the 64-byte image of the counter block at ctrBlock.
func (s *Store) PackBlock(ctrBlock uint64) [BlockSize]byte {
	s.checkCounterBlock(ctrBlock)
	return s.blocks[ctrBlock]
}

// UnpackBlock installs a 64-byte counter block image, overwriting the
// counters it holds. This is the "trust what memory says" step a real memory
// controller performs on a counter-cache fill; calling it with
// attacker-modified bytes reproduces the counter-replay vulnerability when
// counter authentication is disabled.
func (s *Store) UnpackBlock(ctrBlock uint64, img []byte) {
	s.checkCounterBlock(ctrBlock)
	s.blocks[ctrBlock] = [BlockSize]byte(img) // panics on a short image
}

// checkCounterBlock panics unless ctrBlock is in the direct- or
// derivative-counter region.
func (s *Store) checkCounterBlock(ctrBlock uint64) {
	r := s.cfg.Regions
	if ctrBlock < r.DirectBase || ctrBlock >= r.MacBase && ctrBlock < r.DerivBase {
		panic(fmt.Sprintf("counterstore: %#x is not a counter block", ctrBlock))
	}
}

// getBits reads the width-bit field at bit offset off of img. A field covers
// at most 8 bytes: 64-bit fields are aligned, and unaligned ones are at most
// 16 bits wide.
func getBits(img *[BlockSize]byte, off, width uint) uint64 {
	b, n := off/8, (off%8+width+7)/8
	var w uint64
	for _, c := range img[b : b+n] {
		w = w<<8 | uint64(c)
	}
	return w >> (n*8 - off%8 - width) & (1<<width - 1)
}

// setBits writes v's low width bits into the field at bit offset off of
// img, leaving every other bit unchanged.
func setBits(img *[BlockSize]byte, off, width uint, v uint64) {
	b, n := off/8, (off%8+width+7)/8
	sh := n*8 - off%8 - width
	mask := (uint64(1)<<width - 1) << sh
	var w uint64
	for _, c := range img[b : b+n] {
		w = w<<8 | uint64(c)
	}
	w = w&^mask | v<<sh&mask
	for i := b + n; i > b; i-- {
		img[i-1] = byte(w)
		w >>= 8
	}
}
