package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"unsafe"

	"rossf/internal/msg"
)

// variants is how many distinct payloads a workload cycles through:
// message seq carries variant seq%variants, so a delivery of the wrong
// message fails its checksum even where the sequence check would not.
const variants = 16

// variantStride is the byte offset between consecutive variants inside
// the shared payload pool: variant v is pool[v*variantStride:][:size].
const variantStride = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the per-delivery payload checksum (CRC-32C, which the
// standard library computes with the CPU's CRC instruction).
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// crc32Update extends a checksum over b.
func crc32Update(crc uint32, b []byte) uint32 { return crc32.Update(crc, castagnoli, b) }

// floatBytes views a float32 slice as its bytes, for checksumming.
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// inputs is everything a workload sends, derived from the seed alone:
// the same seed gives byte-identical messages on every host.
type inputs struct {
	frameIDs []string
	stamp    msg.Time // stamp of seq 0; seq n is stamped n*33ms later

	size  int    // payload bytes per image message
	pool  []byte // image payload pool holding every variant
	crcs  []uint32
	nscan int       // ranges (and intensities) per scan
	fpool []float32 // scan pool: ranges at v*variantStride, intensities after
	fcrcs []uint32  // checksum of ranges ++ intensities per variant
}

// newInputs generates a workload's inputs from seed. size is the image
// payload in bytes (0 for none); nscan the scan length (0 for none).
func newInputs(seed uint64, size, nscan int) *inputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed_0f_b3c4))
	in := &inputs{size: size, nscan: nscan}
	for i := 0; i < 4; i++ {
		in.frameIDs = append(in.frameIDs, fmt.Sprintf("sensor_%08x", rng.Uint32()))
	}
	in.stamp = msg.Time{Sec: 1_600_000_000 + rng.Uint32N(100_000_000), Nsec: rng.Uint32N(1_000_000_000)}
	if size > 0 {
		var key [32]byte
		for i := range key {
			key[i] = byte(rng.Uint32())
		}
		in.pool = make([]byte, size+(variants-1)*variantStride)
		chacha := rand.NewChaCha8(key)
		_, _ = chacha.Read(in.pool) // ChaCha8.Read never fails
		for v := 0; v < variants; v++ {
			in.crcs = append(in.crcs, checksum(in.payload(uint32(v))))
		}
	}
	if nscan > 0 {
		in.fpool = make([]float32, 2*nscan+(variants-1)*variantStride)
		for i := range in.fpool {
			in.fpool[i] = 0.1 + 29.9*rng.Float32()
		}
		for v := 0; v < variants; v++ {
			r, it := in.scan(uint32(v))
			in.fcrcs = append(in.fcrcs, crc32Update(checksum(floatBytes(r)), floatBytes(it)))
		}
	}
	return in
}

// payload returns the image payload message seq carries.
func (in *inputs) payload(seq uint32) []byte {
	off := int(seq%variants) * variantStride
	return in.pool[off : off+in.size]
}

// payloadCRC is the checksum every delivery of seq must reproduce.
func (in *inputs) payloadCRC(seq uint32) uint32 { return in.crcs[seq%variants] }

// scan returns the ranges and intensities message seq carries.
func (in *inputs) scan(seq uint32) (ranges, intensities []float32) {
	off := int(seq%variants) * variantStride
	return in.fpool[off : off+in.nscan], in.fpool[off+in.nscan : off+2*in.nscan]
}

// scanCRC is the checksum of a delivered scan's ranges then intensities.
func (in *inputs) scanCRC(seq uint32) uint32 { return in.fcrcs[seq%variants] }

// frameID and stampOf give the header fields message seq carries.
func (in *inputs) frameID(seq uint32) string { return in.frameIDs[seq%uint32(len(in.frameIDs))] }

func (in *inputs) stampOf(seq uint32) msg.Time {
	ns := uint64(in.stamp.Nsec) + uint64(seq)*33_000_000
	return msg.Time{Sec: in.stamp.Sec + uint32(ns/1_000_000_000), Nsec: uint32(ns % 1_000_000_000)}
}
