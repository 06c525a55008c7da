package main

import (
	"bytes"
	"slices"
	"testing"
)

func TestInputsDependOnlyOnSeed(t *testing.T) {
	a, b := newInputs(42, 4096, 1440), newInputs(42, 4096, 1440)
	if !bytes.Equal(a.pool, b.pool) || !slices.Equal(a.fpool, b.fpool) ||
		!slices.Equal(a.frameIDs, b.frameIDs) || a.stamp != b.stamp ||
		!slices.Equal(a.crcs, b.crcs) || !slices.Equal(a.fcrcs, b.fcrcs) {
		t.Fatal("the same seed generated different inputs")
	}
	c := newInputs(43, 4096, 1440)
	if bytes.Equal(a.pool, c.pool) || slices.Equal(a.fpool, c.fpool) || slices.Equal(a.frameIDs, c.frameIDs) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestInputsVariantsAndChecksums(t *testing.T) {
	in := newInputs(7, 4096, 1440)
	for seq := uint32(0); seq < 2*variants; seq++ {
		if checksum(in.payload(seq)) != in.payloadCRC(seq) {
			t.Fatalf("seq %d: payload checksum mismatch", seq)
		}
		r, it := in.scan(seq)
		if len(r) != 1440 || len(it) != 1440 ||
			crc32Update(checksum(floatBytes(r)), floatBytes(it)) != in.scanCRC(seq) {
			t.Fatalf("seq %d: scan checksum mismatch", seq)
		}
	}
	if in.payloadCRC(0) == in.payloadCRC(1) {
		t.Error("consecutive messages carry the same payload")
	}
	if in.stampOf(31) == in.stampOf(30) || in.stampOf(31).Nsec >= 1e9 {
		t.Errorf("bad stamps %v %v", in.stampOf(30), in.stampOf(31))
	}
}
