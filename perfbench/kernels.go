package main

import (
	"time"

	"secmem/internal/aescipher"
	"secmem/internal/gcmmode"
	"secmem/internal/gf128"
)

// Kernel timing: each kernel runs kernelBatches batches of kernelCalls
// calls; a batch is timed around the public function calls only and the
// metric is the median batch's host time per call.
const (
	kernelBatches = 15
	kernelCalls   = 2000
	padsPerBatch  = 8 // blocks per BlockPads call: one multi-block transfer
)

// kernelSink keeps the compiler from discarding kernel results.
var kernelSink byte

func timeKernel(calls int, fn func(i int)) float64 {
	v := make([]float64, kernelBatches)
	for b := range v {
		t := time.Now()
		for i := 0; i < calls; i++ {
			fn(i)
		}
		v[b] = float64(time.Since(t).Nanoseconds()) / float64(calls)
	}
	return median(v)
}

// kernelMetrics times the functional crypto layer's kernels on fixed
// inputs: the per-block MAC and encryption, the batched pad generator, one
// AES block and GHASH over a kilobyte.
func kernelMetrics() map[string]metric {
	key := make([]byte, 16)
	buf := make([]byte, 1024)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	copy(key, buf)
	aes := aescipher.MustNew(key)
	pg := gcmmode.NewPadGen(aes, 0, 1)
	tbl := gf128.NewProductTable8(gf128.FromBytes(buf[16:32]))
	blk := buf[:gcmmode.MemBlockSize]
	dst := make([]byte, padsPerBatch*gcmmode.MemBlockSize)
	ctrs := make([]uint64, padsPerBatch)

	mac := timeKernel(kernelCalls, func(i int) {
		tag, _ := pg.MAC(blk, uint64(i)<<6, uint64(i), 64)
		kernelSink ^= tag[0]
	})
	enc := timeKernel(kernelCalls, func(i int) {
		pg.EncryptBlock(dst[:gcmmode.MemBlockSize], blk, uint64(i)<<6, uint64(i))
		kernelSink ^= dst[0]
	})
	pads := timeKernel(kernelCalls/padsPerBatch, func(i int) {
		for k := range ctrs {
			ctrs[k] = uint64(i + k)
		}
		pg.BlockPads(dst, uint64(i)<<9, ctrs)
		kernelSink ^= dst[0]
	}) / padsPerBatch
	block := timeKernel(kernelCalls, func(i int) {
		buf[0] = byte(i)
		aes.Encrypt(dst[:16], buf[:16])
		kernelSink ^= dst[0]
	})
	ghash := timeKernel(kernelCalls/4, func(i int) {
		buf[0] = byte(i)
		sum := gf128.GHASHTable8(&tbl, nil, buf)
		kernelSink ^= sum[0]
	})
	return map[string]metric{
		"gcmmode.mac64_ns":         {mac, "ns"},
		"gcmmode.encrypt_block_ns": {enc, "ns"},
		"gcmmode.block_pads_ns":    {pads, "ns"},
		"aescipher.block_ns":       {block, "ns"},
		"gf128.ghash_kb_ns":        {ghash, "ns"},
	}
}
