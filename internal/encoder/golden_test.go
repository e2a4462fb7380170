package encoder_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/pardon-feddg/pardon/internal/encoder"
	"github.com/pardon-feddg/pardon/internal/tensor"
)

// goldenEncodeDigest is the SHA-256 of the default encoder's outputs on
// the fixed batch below (float64 bits, little-endian, in batch order).
// Any change to the conv kernel, the calibration or the default weights
// moves it; the kernel's contract is that it never does.
const goldenEncodeDigest = "c8fedcc7974a0ea20e80925f5737193b42cc9355269fbd77c6c26869bb00ed5b"

func TestGoldenEncodeDigest(t *testing.T) {
	enc := encoder.Default()
	r := rand.New(rand.NewSource(12))
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < 32; i++ {
		f, err := enc.Encode(tensor.Randn(r, 1, 3, 16, 16))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range f.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenEncodeDigest {
		t.Fatalf("default encoder output digest = %s, want %s", got, goldenEncodeDigest)
	}
}
