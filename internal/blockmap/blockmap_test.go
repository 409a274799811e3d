package blockmap

import "testing"

// model is the reference a Table is checked against: a Go map of image
// values, plus the image pointer each block was first given, which must
// not move while the block is stored.
type model struct {
	t    *testing.T
	tab  Table
	want map[uint64][BlockSize]byte
	ptr  map[uint64]*[BlockSize]byte
	seq  byte
}

func newModel(t *testing.T) *model {
	return &model{t: t, want: map[uint64][BlockSize]byte{}, ptr: map[uint64]*[BlockSize]byte{}}
}

func (m *model) put(addr uint64) {
	m.t.Helper()
	img, existed := m.tab.Put(addr)
	_, had := m.want[addr]
	if existed != had {
		m.t.Fatalf("Put(%#x) existed = %v, model says %v", addr, existed, had)
	}
	if had && img != m.ptr[addr] {
		m.t.Fatalf("Put(%#x) moved the image", addr)
	}
	if !had && *img != [BlockSize]byte{} {
		m.t.Fatalf("Put(%#x) gave a new block a non-zero image", addr)
	}
	m.seq++
	for i := range img {
		img[i] = m.seq + byte(i)
	}
	m.want[addr], m.ptr[addr] = *img, img
	m.check()
}

func (m *model) get(addr uint64) {
	m.t.Helper()
	img := m.tab.Get(addr)
	want, had := m.want[addr]
	switch {
	case (img != nil) != had:
		m.t.Fatalf("Get(%#x) found = %v, model says %v", addr, img != nil, had)
	case had && img != m.ptr[addr]:
		m.t.Fatalf("Get(%#x) moved the image", addr)
	case had && *img != want:
		m.t.Fatalf("Get(%#x) image changed", addr)
	}
}

func (m *model) del(addr uint64) {
	m.t.Helper()
	_, had := m.want[addr]
	if got := m.tab.Delete(addr); got != had {
		m.t.Fatalf("Delete(%#x) = %v, model says %v", addr, got, had)
	}
	delete(m.want, addr)
	delete(m.ptr, addr)
	m.check()
}

func (m *model) clear() {
	m.tab.Clear()
	clear(m.want)
	clear(m.ptr)
	m.check()
}

// check compares the whole table with the model: length, ForEach visiting
// every block once, Get of every block (image and its address), and the
// probe invariant that no empty slot separates a key from its home slot.
func (m *model) check() {
	m.t.Helper()
	if m.tab.Len() != len(m.want) {
		m.t.Fatalf("Len = %d, model has %d", m.tab.Len(), len(m.want))
	}
	seen := map[uint64]bool{}
	m.tab.ForEach(func(addr uint64) {
		if _, ok := m.want[addr]; !ok || seen[addr] {
			m.t.Fatalf("ForEach visited %#x (in model: %v, seen before: %v)", addr, ok, seen[addr])
		}
		seen[addr] = true
	})
	if len(seen) != len(m.want) {
		m.t.Fatalf("ForEach visited %d blocks, model has %d", len(seen), len(m.want))
	}
	for addr := range m.want {
		m.get(addr)
	}
	mask := uint64(len(m.tab.keys) - 1)
	for i, key := range m.tab.keys {
		if key == 0 {
			continue
		}
		for j := m.tab.home(key - 1); j != uint64(i); j = (j + 1) & mask {
			if m.tab.keys[j] == 0 {
				m.t.Fatalf("empty slot %d between %#x and its home", j, key-1)
			}
		}
	}
}

// homed returns n distinct block addresses whose home slot in a
// minSlots-slot table is home.
func homed(home uint64, n int) []uint64 {
	probe := Table{shift: 64 - 6}
	if 1<<(64-probe.shift) != minSlots {
		panic("homed assumes 64 slots")
	}
	var out []uint64
	for a := uint64(0); len(out) < n; a += BlockSize {
		if probe.home(a) == home {
			out = append(out, a)
		}
	}
	return out
}

func TestTableMatchesMap(t *testing.T) {
	last, first := homed(minSlots-1, 6), homed(0, 4)
	wrap := append(append([]uint64{}, last...), first...)
	type op struct {
		kind byte // 'p'ut, 'g'et, 'd'elete, 'c'lear
		addr uint64
	}
	seq := func(kind byte, addrs ...uint64) []op {
		var ops []op
		for _, a := range addrs {
			ops = append(ops, op{kind, a})
		}
		return ops
	}
	cat := func(parts ...[]op) []op {
		var ops []op
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return ops
	}
	var grow []uint64
	for a := uint64(0); a < 1200*7*BlockSize; a += 7 * BlockSize {
		grow = append(grow, a)
	}
	for _, tc := range []struct {
		name string
		ops  []op
	}{
		{"empty table", seq('g', 0, 64, 1<<40)},
		{"delete from empty", seq('d', 0, 64)},
		{"put get delete", cat(seq('p', 0, 64, 128), seq('g', 0, 64, 128, 192), seq('d', 64, 64), seq('g', 0, 64, 128))},
		{"put twice keeps image", seq('p', 4096, 4096, 4096)},
		{"address zero and top block", cat(seq('p', 0, 1<<63, ^uint64(0)-63), seq('d', 0), seq('g', 1<<63))},
		// A probe run that starts in the last slot wraps to slot 0; the
		// blocks homed at 0 sit behind it and must shift back across the
		// wrap when the run's head is deleted.
		{"wrap-around run, delete head", cat(seq('p', wrap...), seq('d', last[0], last[1]), seq('g', wrap...))},
		{"wrap-around run, delete tail", cat(seq('p', wrap...), seq('d', first[3], first[0], last[5]), seq('g', wrap...))},
		{"wrap-around run, delete all", cat(seq('p', wrap...), seq('d', wrap...), seq('p', first...))},
		{"recycled images are zero", cat(seq('p', wrap...), seq('d', wrap[2:7]...), seq('p', 1<<30, 2<<30, 3<<30))},
		{"clear then reuse", cat(seq('p', wrap...), seq('c', 0), seq('g', wrap...), seq('p', last...))},
		{"growth keeps images", cat(seq('p', grow...), seq('d', grow[100:900]...), seq('p', grow[:500]...))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newModel(t)
			for _, o := range tc.ops {
				switch o.kind {
				case 'p':
					m.put(o.addr)
				case 'g':
					m.get(o.addr)
				case 'd':
					m.del(o.addr)
				case 'c':
					m.clear()
				}
			}
			m.check()
		})
	}
}

func TestZeroValueAllocatesNothing(t *testing.T) {
	var tab Table
	allocs := testing.AllocsPerRun(100, func() {
		tab.Get(0x40)
		tab.Delete(0x40)
		tab.ForEach(func(uint64) {})
		tab.Clear()
	})
	if allocs != 0 || tab.keys != nil || tab.chunks != nil {
		t.Fatalf("zero Table allocated: %.1f objects/op, %d slots, %d chunks", allocs, len(tab.keys), len(tab.chunks))
	}
}

// TestHotRootsZeroAlloc pins the //secmemlint:hotpath roots to zero heap
// allocations once the table has grown to its working size: a fill and an
// eviction of a block the table has seen before reuse a slot and an image.
func TestHotRootsZeroAlloc(t *testing.T) {
	var tab Table
	for a := uint64(0); a < 1000*BlockSize; a += BlockSize {
		tab.Put(a)
	}
	for a := uint64(0); a < 1000*BlockSize; a += 2 * BlockSize {
		tab.Delete(a)
	}
	var a uint64
	allocs := testing.AllocsPerRun(1000, func() {
		img, _ := tab.Put(a)
		img[0]++
		tab.Get(a + BlockSize)
		tab.Delete(a)
		a = (a + 2*BlockSize) % (1000 * BlockSize)
	})
	if allocs != 0 {
		t.Fatalf("Put/Get/Delete allocate %.1f objects/op, want 0", allocs)
	}
}

// FuzzBlockTable runs byte-coded scripts of Put, Get, Delete, Clear and
// ForEach against the map model. Each operation takes two bytes: the
// operation (the first byte modulo 5) and an address selector. Selectors
// below 128 pick from addresses homed at the last two and the first two
// slots of the initial table, which forces collisions and probe runs across
// the wrap-around; the rest spread over enough blocks to make the table
// grow.
func FuzzBlockTable(f *testing.F) {
	var pool []uint64
	for _, h := range []uint64{minSlots - 2, minSlots - 1, 0, 1} {
		pool = append(pool, homed(h, 32)...)
	}
	f.Add([]byte{0, 0, 0, 32, 0, 64, 0, 96, 2, 0, 1, 64, 4, 0})
	f.Add([]byte{0, 10, 0, 11, 0, 12, 0, 40, 0, 41, 2, 10, 2, 40, 1, 11, 1, 41, 3, 0, 0, 10})
	grow := make([]byte, 0, 400)
	for i := 0; i < 100; i++ {
		grow = append(grow, 0, byte(128+i))
	}
	for i := 0; i < 100; i += 3 {
		grow = append(grow, 2, byte(128+i))
	}
	f.Add(append(grow, 4, 0))
	f.Fuzz(func(t *testing.T, script []byte) {
		m := newModel(t)
		for i := 0; i+1 < len(script); i += 2 {
			sel := uint64(script[i+1])
			addr := pool[sel%uint64(len(pool))]
			if sel >= 128 {
				addr = (sel - 128) * 977 * BlockSize
			}
			switch script[i] % 5 {
			case 0:
				m.put(addr)
			case 1:
				m.get(addr)
			case 2:
				m.del(addr)
			case 3:
				m.clear()
			case 4:
				m.check()
			}
		}
		m.check()
	})
}
