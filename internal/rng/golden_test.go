package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// normalsGolden is the SHA-256 of the first 2^20 NormalICDF draws on
// stream (0, 1), each as its little-endian IEEE 754 bits: the normals the
// served Monte Carlo request integrates over at seed 1. It holds with and
// without FMA on amd64 (GODEBUG=cpu.fma=off) and on 386, since InvCND
// rounds every product explicitly and calls nothing from the standard
// library that switches on the CPU.
const normalsGolden = "f347735023670d902006228aed6224ece2ae3aae08b05c17bc8067ef443cc949"

func TestNormalICDFGolden(t *testing.T) {
	z := make([]float64, 1<<20)
	NewStream(0, 1).NormalICDF(z)
	h := sha256.New()
	var b [8]byte
	for _, v := range z {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != normalsGolden {
		t.Fatalf("SHA-256 of 2^20 normals on stream (0, 1) = %s, golden %s", got, normalsGolden)
	}
}
