package main

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"secmem/internal/config"
	"secmem/internal/core"
	"secmem/internal/dram"
)

// checker counts checked operations and the ones that failed. Every check
// runs outside the timed regions.
type checker struct {
	attempted, failed int
}

// op records one checked operation; it failed if any problem is non-nil.
// Problems are reported on standard error.
func (c *checker) op(name string, problems ...error) {
	c.attempted++
	bad := false
	for _, p := range problems {
		if p != nil {
			bad = true
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s: %v\n", name, p)
		}
	}
	if bad {
		c.failed++
	}
}

// simProblems checks one finished simulation of cfg: it repeats the
// reference statistics when there is a reference, it raised no tamper on
// clean memory, a functional run really ran its crypto layer, and a
// re-encryption workload (reenc) reached page re-encryption.
func simProblems(cfg config.SystemConfig, reenc bool, mem *core.MemSystem, st simStats, ref *simStats) []error {
	var errs []error
	if ref != nil && st != *ref {
		errs = append(errs, fmt.Errorf("statistics differ from the reference run:\n  got  %+v\n  want %+v", st, *ref))
	}
	if st.Ctl.TamperDetected != 0 {
		errs = append(errs, fmt.Errorf("clean run raised %d tamper event(s)", st.Ctl.TamperDetected))
	}
	if mem.Controller().DRAM().Functional() && mem.Controller().DRAM().TouchedBlocks() == 0 {
		errs = append(errs, fmt.Errorf("functional run wrote no block to the DRAM image"))
	}
	if cfg.Functional && !mem.Controller().DRAM().Functional() {
		errs = append(errs, fmt.Errorf("functional workload built a timing-only machine"))
	}
	if reenc {
		if st.RSR.PageReencs == 0 {
			errs = append(errs, fmt.Errorf("no RSR page re-encryption"))
		}
		if st.Ctr.MinorOverflows == 0 {
			errs = append(errs, fmt.Errorf("no minor-counter overflow"))
		}
	}
	return errs
}

// attack mounts two off-chip attacks on a finished functional machine and
// records one operation each: a bit flip in a data block that is not on
// chip, and a replay of a block's old ciphertext after the processor has
// rewritten it and drained the hierarchy. Both must raise TamperDetected.
func attack(c *checker, fm *machine, seed int64) {
	m, memBytes, end := fm.mem, fm.cfg.MemBytes, fm.end
	draw := uint64(seed)
	pickN := func(n int) int { // splitmix64 over the seed: same seed, same blocks
		draw += 0x9e3779b97f4a7c15
		z := (draw ^ draw>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return int((z ^ z>>31) % uint64(n))
	}
	atk := dram.NewAttacker(m.Controller().DRAM())
	pick := func() (uint64, error) {
		blocks := dataBlocks(m, memBytes)
		if len(blocks) == 0 {
			return 0, fmt.Errorf("no off-chip data block in the DRAM image")
		}
		return blocks[pickN(len(blocks))], nil
	}
	detected := func(kind string, addr uint64, read func() error) error {
		before := m.Controller().Stats.TamperDetected
		if err := read(); err != nil {
			return fmt.Errorf("%s at %#x: read back: %w", kind, addr, err)
		}
		if m.Controller().Stats.TamperDetected == before {
			return fmt.Errorf("%s at %#x went undetected", kind, addr)
		}
		return nil
	}
	buf := make([]byte, core.BlockSize)

	addr, err := pick()
	if err == nil {
		atk.FlipBit(addr, pickN(core.BlockSize*8))
		err = detected("bit flip", addr, func() error {
			_, err := m.ReadBytes(end, addr, buf)
			return err
		})
	}
	c.op("attack: bit flip", err)

	addr, err = pick()
	if err == nil {
		atk.Record(addr)
		if _, err = m.WriteBytes(end+1000, addr, bytes.Repeat([]byte{0x5a}, core.BlockSize)); err == nil {
			m.Drain(end + 2000)
			atk.Replay(addr)
			err = detected("replay", addr, func() error {
				_, err := m.ReadBytes(end+3000, addr, buf)
				return err
			})
		}
	}
	c.op("attack: replay", err)
}

// dataBlocks lists, in address order, the program-data blocks present in
// the functional DRAM image that neither L1 nor L2 holds: the blocks an
// off-chip attacker can tamper with before the processor reads them back.
func dataBlocks(m *core.MemSystem, memBytes uint64) []uint64 {
	var out []uint64
	m.Controller().DRAM().ForEachBlock(func(addr uint64) {
		if addr < memBytes && !m.L1().Contains(addr) && !m.L2().Contains(addr) {
			out = append(out, addr)
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
