package bench

import (
	"math"
	"testing"

	"rossf/internal/obs"
)

// TestEgressGuardLargeSingleSub pins the 1 MiB x 1-subscriber cell:
// the batched egress path must not regress below the frozen per-frame
// reference publisher (referencePublisher in egress.go). This cell is
// where batching has the least to offer (no fan-out to share the CRC
// across, frames too large to coalesce) and where a publish-time
// checksum can backfire by serializing the hash with the publish loop
// — the path now defers hashing to the send loop at
// fan-out 1 precisely so this guard holds.
func TestEgressGuardLargeSingleSub(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard: skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing guard: race instrumentation skews the comparison")
	}
	const size, fanout, n = 1 << 20, 1, 96
	cfg := EgressConfig{Registry: obs.NewRegistry()}
	bestRef, bestBatched := math.Inf(1), math.Inf(1)
	// Interleave the modes so machine-load drift hits both evenly,
	// exactly like the reported benchmark.
	for rep := 0; rep < 4; rep++ {
		for _, reference := range []bool{true, false} {
			ns, err := runEgressOnce(size, fanout, n, reference, cfg)
			if err != nil {
				t.Fatalf("runEgressOnce(reference=%v): %v", reference, err)
			}
			if reference {
				bestRef = math.Min(bestRef, ns)
			} else {
				bestBatched = math.Min(bestBatched, ns)
			}
		}
	}
	t.Logf("1MiB x 1: reference %.0f ns/msg, batched %.0f ns/msg (%.2fx)",
		bestRef, bestBatched, bestRef/bestBatched)
	// 15% tolerance absorbs scheduler noise; a real regression (the
	// publish-time-hash serialization was ~5% and structural) sits well
	// outside it in repeated runs.
	if bestBatched > bestRef*1.15 {
		t.Errorf("batched egress regressed at 1 MiB x 1 subscriber: reference %.0f ns/msg, batched %.0f ns/msg (%.2fx)",
			bestRef, bestBatched, bestRef/bestBatched)
	}
}
