package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"rossf/internal/ros"
	"rossf/msgs/sensor_msgs"
)

// TestWorkloadsSmoke runs every workload briefly and asserts that every
// delivery arrived intact.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	h := fingerprint()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.shm {
				if reason := h.shmSkipReason(w.shmNeed()); reason != "" {
					t.Skip(reason)
				}
			}
			c := &config{seed: 3, seconds: 0.4}
			res := w.run(c, w, w.inputs(c.seed))
			if res.attempted == 0 || res.failed != 0 || res.failedRatio() != 0 || len(res.reasons) != 0 || len(res.errs) != 0 {
				t.Fatalf("attempted %d, failed %d, reasons %q, errors %q",
					res.attempted, res.failed, res.reasons, res.errs)
			}
			if len(res.setups) != setupRounds || len(res.passes) != 1 || len(res.passes[0].ping) != w.rounds {
				t.Fatalf("%d setups, %d passes", len(res.setups), len(res.passes))
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps the metric and workload tables in step
// with BENCHMARK.json at the repository root.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}

// mislabeled publishes message `at` under another sequence number, so
// its real number is never delivered.
type mislabeled struct {
	*imageSource
	at uint32
}

func (m mislabeled) fill(msg *sensor_msgs.ImageSF, seq uint32) error {
	err := m.imageSource.fill(msg, seq)
	if seq == m.at {
		msg.Header.Seq = seq + 1<<20
	}
	return err
}

func TestMissingDeliveryEndsRun(t *testing.T) {
	w := *workloadByName("small_tcp")
	w.rounds, w.timeout = 1, 300*time.Millisecond
	c := &config{seed: 3, seconds: 0.4}
	start := time.Now()
	res := execute[sensor_msgs.ImageSF](c, &w, mislabeled{&imageSource{w: &w, in: w.inputs(c.seed)}, 40})
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("run took %v after a missing delivery", took)
	}
	if res.failed == 0 || res.failedRatio() == 0 {
		t.Errorf("failed %d of %d: a missing delivery went uncounted", res.failed, res.attempted)
	}
	want := "no delivery of seq 40 to 2 of 2 subscriptions"
	if len(res.reasons) == 0 || !strings.Contains(strings.Join(res.reasons, "\n"), want) {
		t.Errorf("reasons %q do not name %q", res.reasons, want)
	}
}

func TestAttachTimeoutEndsRun(t *testing.T) {
	w := *workloadByName("small_tcp")
	// Nodes reach each other only through a remote master, so an
	// in-process-only subscription never attaches.
	w.transports[1] = ros.TransportInproc
	w.timeout = 300 * time.Millisecond
	res := w.run(&config{seed: 3, seconds: 0.4}, &w, w.inputs(3))
	if res.failedRatio() != 1 || len(res.reasons) != 1 || !strings.Contains(res.reasons[0], "attach incomplete") {
		t.Errorf("failed_ratio %v, reasons %q; want 1 and an attach failure", res.failedRatio(), res.reasons)
	}
}
