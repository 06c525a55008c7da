// Command perfbench is the seeded pub/sub benchmark of the rossf
// middleware: one named workload per run, measured closed-loop in one
// process against a real loopback graph, with every delivery checked.
// See README.md for workloads, metrics and the traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// setupRounds is how many times a run sets the topology up; setup_s is
// their median, so a few slow set-ups do not move it.
const setupRounds = 25

// config is one invocation's settings.
type config struct {
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Exit codes besides 0 (every delivery correct).
const (
	exitFailed  = 1 // a delivery, set-up or teardown failed; the result says why
	exitUsage   = 2
	exitSkipped = 3 // the workload cannot run on this host; "skipped: <reason>" says why
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "measured seconds (split between the ping and stream phases)")
	trace := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return exitUsage
	}
	c := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}

	runtime.GOMAXPROCS(runtime.NumCPU())
	h := fingerprint()
	hb, _ := json.Marshal(h) // a struct of plain fields always marshals
	fmt.Fprintf(stdout, "host: %s\n", hb)
	if w.shm {
		if reason := h.shmSkipReason(w.shmNeed()); reason != "" {
			fmt.Fprintf(stdout, "skipped: %s\n", reason)
			return exitSkipped
		}
	}
	fmt.Fprintf(stdout, "workload: %s (seed %d, %gs measured, trace %d): %s\n", w.name, c.seed, c.seconds, *trace, w.why)

	res := w.run(c, w, w.inputs(c.seed))
	defs, values := metricsOf(c, w, res, stdout)
	printReport(stdout, res)
	out := map[string]any{}
	for _, m := range defs {
		v := values[m.name]
		fmt.Fprintf(stdout, "  %-34s %14.4f %-9s (%s is better)\n", m.name, v, m.unit, m.better)
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if !c.trace {
		for _, m := range tails {
			fmt.Fprintf(stdout, "  %-34s %14.4f %-9s (%s is better; unbounded, not in the result)\n",
				m.name, values[m.name], m.unit, m.better)
		}
	}
	correct := res.failed == 0 && len(res.reasons) == 0 && len(res.errs) == 0
	line, _ := json.Marshal(map[string]any{ // maps of numbers and strings always marshal
		"correct":   correct,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return exitFailed
	}
	return 0
}

// metricsOf computes the metrics a run reports: the end-to-end ones of
// the untraced pass, or with tracing the per-layer ones, after writing
// the spans. Anything that keeps a metric from being measured is added
// to res.errs.
func metricsOf(c *config, w *workload, res *runResult, stdout io.Writer) ([]metric, map[string]float64) {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	if len(res.passes) == 0 { // set-up failed; res.reasons says why
		return defs, map[string]float64{}
	}
	var values map[string]float64
	var errs []error
	if !c.trace {
		values, errs = endToEndOf(res, res.passes[0])
	} else {
		tp := res.passes[1]
		recs := map[string][]*recorder{}
		for i := range tp.ping {
			recs["ping"] = append(recs["ping"], tp.ping[i].rec)
			recs["stream"] = append(recs["stream"], tp.stream[i].rec)
		}
		lt := map[string]layerTimes{}
		path, spans, err := writeTrace(c.traceDir, w.name, c.seed, res.setups, recs, lt)
		if err != nil {
			errs = append(errs, err)
		} else {
			fmt.Fprintf(stdout, "trace: %d spans written to %s\n", spans, path)
		}
		var lerrs []error
		values, lerrs = perLayerOf(res, res.passes[0], tp, lt, spans)
		errs = append(errs, lerrs...)
	}
	for _, e := range errs {
		res.errs = append(res.errs, e.Error())
	}
	for _, m := range defs {
		if v := values[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			res.errs = append(res.errs, m.name+" is not a number")
			values[m.name] = 0
		}
	}
	return defs, values
}

// printReport prints the set-up times, sample counts and delivery
// accounting of a run, and why it failed if it did.
func printReport(stdout io.Writer, res *runResult) {
	for i, st := range res.setups {
		fmt.Fprintf(stdout, "setup %d: %.3fms (advertise %.0fus, subscribe %.0fus+%.0fus, attach %.0fus)\n", i,
			st.total.Seconds()*1e3, us(int64(st.advertise)), us(int64(st.subscribe[0])), us(int64(st.subscribe[1])), us(int64(st.attach)))
	}
	for i, p := range res.passes {
		for _, ph := range []struct {
			name   string
			phases []*phase
		}{{"ping", p.ping}, {"stream", p.stream}} {
			n, least := 0, math.MaxInt
			for _, r := range ph.phases {
				n += r.lat.n
				least = min(least, r.lat.n)
			}
			fmt.Fprintf(stdout, "pass %d %s: %d latency samples over %d rounds (fewest in a round: %d)\n",
				i, ph.name, n, len(ph.phases), least)
		}
	}
	if res.stealPct >= 0 {
		fmt.Fprintf(stdout, "host: %.2f%% of CPU time stolen by the hypervisor while measuring\n", res.stealPct)
	}
	fmt.Fprintf(stdout, "deliveries: %d attempted, %d failed (failed_ratio %g)\n",
		res.attempted, res.failed, res.failedRatio())
	for _, r := range res.reasons {
		fmt.Fprintf(stdout, "FAILED: %s\n", r)
	}
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "ERROR: %s\n", e)
	}
}

func workloadNames() []string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return n
}

// shmNeed is the /dev/shm space a shared-memory workload needs: every
// message in flight plus the pool's spare slots, at arena capacity.
func (w *workload) shmNeed() int {
	capacity := w.capacity
	if capacity == 0 {
		capacity = 8 << 20 // registered sensor_msgs/Image capacity
	}
	return (w.window + 8) * capacity
}
