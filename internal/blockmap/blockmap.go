// Package blockmap maps block addresses to 64-byte images that stay where
// they are: the byte store under the simulator's functional DRAM image, the
// controller's on-chip shadow copies, and the counter store's counter
// blocks.
//
// A Table is an open-addressing hash table with linear probing over two
// flat power-of-two arrays, the keys and the image indices, and it deletes
// by shifting the rest of a probe run back, so no tombstones build up. The
// images live in fixed 16 KB chunks that never move, so an image pointer
// stays valid while the table grows; the images of deleted blocks are
// recycled through a free list threaded through their first bytes. Nothing
// in a Table holds a Go pointer except the chunk list, so the garbage
// collector never scans the images or the slot arrays.
//
// A direct-indexed slab is the wrong shape here: the workloads write a few
// blocks on each of thousands of distinct pages, so any page-sized chunk of
// a two-level table would be mostly empty.
package blockmap

import "encoding/binary"

// BlockSize is the size of one image in bytes.
const BlockSize = 64

// chunkImages is the number of images per chunk (16 KB).
const chunkImages = 256

// minSlots is the slot count of a table's first growth.
const minSlots = 64

// Table maps block addresses to images. An address is any uint64 but the
// all-ones one, which is never block-aligned. The zero value is an empty
// table that has allocated nothing; the first Put allocates. A Table is not
// safe for concurrent use.
type Table struct {
	keys  []uint64 // per slot: the block's address plus one; 0 marks an empty slot
	idx   []int32  // per slot: the index of the block's image
	shift uint     // 64 - log2(len(keys)): hash bits to drop
	n     int      // blocks stored
	limit int      // n at which the slot arrays double (3/4 full)

	chunks []*[chunkImages][BlockSize]byte
	next   int32 // images handed out from the chunks so far
	free   int32 // index plus one of the first recycled image; 0 for none
}

// Len reports how many blocks the table holds.
func (t *Table) Len() int { return t.n }

// home is the first slot probed for addr. Fibonacci hashing of the block
// number (the address without its six offset bits, zero in every use)
// spreads consecutive blocks evenly over the slots.
func (t *Table) home(addr uint64) uint64 {
	return (addr >> 6) * 0x9e3779b97f4a7c15 >> t.shift
}

// find returns the slot holding addr, or the empty slot that ends its
// probe run. The table must have slots.
func (t *Table) find(addr uint64) (slot uint64, found bool) {
	mask := uint64(len(t.keys) - 1)
	key := addr + 1
	for i := t.home(addr); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (t *Table) image(i int32) *[BlockSize]byte {
	return &t.chunks[uint32(i)/chunkImages][uint32(i)%chunkImages]
}

// Get returns the image of the block at addr, or nil when the table does
// not hold it. The image stays valid until the block is deleted or the
// table cleared.
//
//secmemlint:hotpath
func (t *Table) Get(addr uint64) *[BlockSize]byte {
	if t.n == 0 {
		return nil
	}
	if i, ok := t.find(addr); ok {
		return t.image(t.idx[i])
	}
	return nil
}

// Put returns the image of the block at addr, adding the block with an
// all-zero image when the table does not hold it yet; existed reports
// which. The image stays valid until the block is deleted or the table
// cleared.
//
//secmemlint:hotpath
func (t *Table) Put(addr uint64) (img *[BlockSize]byte, existed bool) {
	var i uint64
	if len(t.keys) != 0 {
		var ok bool
		if i, ok = t.find(addr); ok {
			return t.image(t.idx[i]), true
		}
	}
	if t.n >= t.limit || t.free == 0 && int(t.next) == len(t.chunks)*chunkImages {
		t.grow()
		i, _ = t.find(addr)
	}
	var k int32
	if t.free != 0 {
		k = t.free - 1
		img = t.image(k)
		t.free = int32(binary.LittleEndian.Uint32(img[:4]))
	} else {
		k = t.next
		t.next++
		img = t.image(k)
	}
	*img = [BlockSize]byte{} // recycled, or left over from before a Clear
	t.keys[i], t.idx[i] = addr+1, k
	t.n++
	return img, false
}

// grow makes room for one more block: it doubles the slot arrays once they
// are 3/4 full and adds a chunk once every image is in use.
//
//secmemlint:ignore hotpathalloc amortized growth: the slot arrays double and a chunk serves 256 new blocks, so a steady-state fill or write-back of a block seen before never reaches it
func (t *Table) grow() {
	if t.n >= t.limit {
		size := max(minSlots, 2*len(t.keys))
		keys, idx := t.keys, t.idx
		t.keys, t.idx = make([]uint64, size), make([]int32, size)
		t.limit = size - size/4
		t.shift = 64
		for s := size; s > 1; s >>= 1 {
			t.shift--
		}
		for j, key := range keys {
			if key != 0 {
				i, _ := t.find(key - 1)
				t.keys[i], t.idx[i] = key, idx[j]
			}
		}
	}
	if t.free == 0 && int(t.next) == len(t.chunks)*chunkImages {
		t.chunks = append(t.chunks, new([chunkImages][BlockSize]byte))
	}
}

// Delete removes the block at addr and reports whether the table held it.
// Its image returns to the free list, so pointers to it must not be used
// afterwards.
//
//secmemlint:hotpath
func (t *Table) Delete(addr uint64) bool {
	if t.n == 0 {
		return false
	}
	i, ok := t.find(addr)
	if !ok {
		return false
	}
	k := t.idx[i]
	binary.LittleEndian.PutUint32(t.image(k)[:4], uint32(t.free))
	t.free = k + 1
	t.n--
	// Backward shift: walk the rest of the probe run and move each entry
	// whose home slot does not lie in (i, j] into the hole at i.
	mask := uint64(len(t.keys) - 1)
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]-1))&mask >= (j-i)&mask {
			t.keys[i], t.idx[i] = t.keys[j], t.idx[j]
			i = j
		}
	}
	t.keys[i] = 0
	return true
}

// Clear removes every block, keeping the allocated slots and chunks for
// reuse.
func (t *Table) Clear() {
	clear(t.keys)
	t.n, t.next, t.free = 0, 0, 0
}

// ForEach calls fn with the address of every block in slot order, which
// depends on the addresses stored and is not their numeric order. fn may
// Get and modify images and Put blocks the table holds, but must not add or
// delete blocks.
func (t *Table) ForEach(fn func(addr uint64)) {
	for _, key := range t.keys {
		if key != 0 {
			fn(key - 1)
		}
	}
}
