package aescipher

// This file is the production encryption round: the classic 32-bit T-table
// formulation (FIPS-197 section 5.2 equation, Rijndael proposal section
// 4.2). Each table entry fuses SubBytes, the MixColumns column constants,
// and the byte placement of ShiftRows, so one round is sixteen word lookups
// and XORs instead of sixteen S-box lookups plus twelve GF(2^8) doublings.
// The tables are generated at init from the same first-principles S-box the
// reference path uses — nothing is hard-coded — and Encrypt is pinned to
// both EncryptOracle and crypto/aes by the differential tests.
//
// Like the S-box itself, the T-tables are indexed by secret state bytes:
// the canonical AES cache-timing channel. The suppressions below mirror the
// existing subWord ones — this code models the paper's pipelined hardware
// AES engine (Section 5), whose combinational round logic has no cache and
// therefore no timing image; software table timing is out of scope.

// te0..te3 are the four encryption T-tables; te1..te3 are byte rotations of
// te0, matching each state byte's destination column after ShiftRows.
var te0, te1, te2, te3 [256]uint32

// initTTables derives the T-tables from the generated S-box. Called from
// the package init in aes.go after the S-box is built, so table contents
// never depend on init-order subtleties between files.
func initTTables() {
	for i := 0; i < 256; i++ {
		s := sbox[i]
		s2 := mul2(s)
		s3 := s2 ^ s
		w := uint32(s2)<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(s3)
		te0[i] = w
		te1[i] = w>>8 | w<<24
		te2[i] = w>>16 | w<<16
		te3[i] = w>>24 | w<<8
	}
}

// encryptBlockFast runs the T-table rounds over one block. State words are
// the big-endian column words of the FIPS-197 state, identical to the round
// keys' layout, so AddRoundKey is a word XOR.
func (c *Cipher) encryptBlockFast(dst, src []byte) {
	_ = src[15]
	_ = dst[15]
	xk := c.enc
	s0 := uint32(src[0])<<24 | uint32(src[1])<<16 | uint32(src[2])<<8 | uint32(src[3])
	s1 := uint32(src[4])<<24 | uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	s2 := uint32(src[8])<<24 | uint32(src[9])<<16 | uint32(src[10])<<8 | uint32(src[11])
	s3 := uint32(src[12])<<24 | uint32(src[13])<<16 | uint32(src[14])<<8 | uint32(src[15])
	s0 ^= xk[0]
	s1 ^= xk[1]
	s2 ^= xk[2]
	s3 ^= xk[3]
	k := 4
	for r := 1; r < c.rounds; r++ {
		t0 := te0[s0>>24] ^ te1[s1>>16&0xff] ^ te2[s2>>8&0xff] ^ te3[s3&0xff] ^ xk[k]
		t1 := te0[s1>>24] ^ te1[s2>>16&0xff] ^ te2[s3>>8&0xff] ^ te3[s0&0xff] ^ xk[k+1]
		t2 := te0[s2>>24] ^ te1[s3>>16&0xff] ^ te2[s0>>8&0xff] ^ te3[s1&0xff] ^ xk[k+2]
		t3 := te0[s3>>24] ^ te1[s0>>16&0xff] ^ te2[s1>>8&0xff] ^ te3[s2&0xff] ^ xk[k+3]
		s0, s1, s2, s3 = t0, t1, t2, t3
		k += 4
	}
	// Final round: SubBytes and ShiftRows only (no MixColumns), straight
	// from the S-box.
	t0 := uint32(sbox[s0>>24])<<24 | uint32(sbox[s1>>16&0xff])<<16 | uint32(sbox[s2>>8&0xff])<<8 | uint32(sbox[s3&0xff])
	t1 := uint32(sbox[s1>>24])<<24 | uint32(sbox[s2>>16&0xff])<<16 | uint32(sbox[s3>>8&0xff])<<8 | uint32(sbox[s0&0xff])
	t2 := uint32(sbox[s2>>24])<<24 | uint32(sbox[s3>>16&0xff])<<16 | uint32(sbox[s0>>8&0xff])<<8 | uint32(sbox[s1&0xff])
	t3 := uint32(sbox[s3>>24])<<24 | uint32(sbox[s0>>16&0xff])<<16 | uint32(sbox[s1>>8&0xff])<<8 | uint32(sbox[s2&0xff])
	t0 ^= xk[k]
	t1 ^= xk[k+1]
	t2 ^= xk[k+2]
	t3 ^= xk[k+3]
	dst[0], dst[1], dst[2], dst[3] = byte(t0>>24), byte(t0>>16), byte(t0>>8), byte(t0)
	dst[4], dst[5], dst[6], dst[7] = byte(t1>>24), byte(t1>>16), byte(t1>>8), byte(t1)
	dst[8], dst[9], dst[10], dst[11] = byte(t2>>24), byte(t2>>16), byte(t2>>8), byte(t2)
	dst[12], dst[13], dst[14], dst[15] = byte(t3>>24), byte(t3>>16), byte(t3>>8), byte(t3)
}
