package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/wire"
)

// IngressConfig parameterizes the receive-side matrix: a high-rate
// single-subscriber drain (one publisher saturating one TCP reader, the
// mirror image of the egress bench) measured through the receive pump
// (ros.DrainFrames) and through drainSequential, the frozen per-frame
// reference reader, plus a registry-contention matrix — N
// goroutines hammering per-topic instrument lookups across a 10k-topic
// namespace on the sharded registry vs a single-mutex reference.
type IngressConfig struct {
	Sizes   []int // drain payload sizes in bytes
	Frames  int   // measured frames at the smallest size (scaled down for larger payloads)
	Repeats int   // runs per (cell, mode); the best run is reported

	Goroutines int // contention workers (the paper-scale cell uses 64)
	Topics     int // contention namespace size (the paper-scale cell uses 10000)
	Ops        int // lookups per worker per run

	// Registry receives the drain runs' transport instruments. Defaults
	// to a private registry.
	Registry *obs.Registry
}

func (c *IngressConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 64 << 10}
	}
	if c.Frames == 0 {
		c.Frames = 30000
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Goroutines == 0 {
		c.Goroutines = 64
	}
	if c.Topics == 0 {
		c.Topics = 10000
	}
	if c.Ops == 0 {
		c.Ops = 50000
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// framesFor scales the per-cell frame count so every cell moves a
// comparable byte volume, with a floor long enough to amortize TCP
// ramp-up.
func (c *IngressConfig) framesFor(size int) int {
	n := c.Frames
	if size > 16<<10 {
		n = c.Frames * (16 << 10) / size
	}
	if n < 512 {
		n = 512
	}
	return n
}

// IngressDrainRow is one single-subscriber drain cell. Baseline numbers
// come from drainSequential (two ReadFull syscalls per frame) run in the
// same binary, interleaved with the batched measurements.
type IngressDrainRow struct {
	SizeBytes        int     `json:"size_bytes"`
	Frames           int     `json:"frames"`
	BaselineNsPerMsg float64 `json:"baseline_ns_per_msg"`
	BatchedNsPerMsg  float64 `json:"batched_ns_per_msg"`
	FramesPerSec     float64 `json:"frames_per_sec"`
	MBPerSec         float64 `json:"mb_per_sec"`
	Speedup          float64 `json:"speedup_vs_baseline"`
}

// IngressRegistryRow is one contention cell: the same
// lookup+update+introspection workload driven through the sharded
// registry and through a single-mutex reference replicating the
// pre-sharding layout.
//
// The headline metric is the scan stall: how long the lock guarding a
// data-plane lookup is held by one introspection scan (/metrics
// snapshot, rostopic stats). Under the single mutex, a lookup arriving
// mid-scan waits for the whole table walk; under the striped layout it
// waits for at most one stripe's walk. That bound is deterministic and
// hardware-independent — unlike raw lookup throughput, which on a
// single-CPU CI box cannot exhibit parallel contention at all (the
// lookup ns/op columns are recorded for reference; they show the hash
// overhead, not the multicore contention the stripes remove).
type IngressRegistryRow struct {
	Kind              string  `json:"kind"` // "obs" or "master"
	Goroutines        int     `json:"goroutines"`
	Topics            int     `json:"topics"`
	OpsPerWorker      int     `json:"ops_per_worker"`
	SingleLockNsPerOp float64 `json:"single_lock_lookup_ns_per_op"`
	ShardedNsPerOp    float64 `json:"sharded_lookup_ns_per_op"`
	SingleLockStallNs float64 `json:"single_lock_scan_stall_ns"`
	ShardedStallNs    float64 `json:"sharded_scan_stall_ns"`
	ScanOpsPerSec     float64 `json:"lookups_per_sec_during_scan"`
	Speedup           float64 `json:"scan_stall_speedup_vs_single_lock"`
}

// IngressResult is the full matrix, serialized to BENCH_ingress.json by
// the bench CLI.
type IngressResult struct {
	Baseline string               `json:"baseline"`
	Drain    []IngressDrainRow    `json:"drain"`
	Registry []IngressRegistryRow `json:"registry"`
}

// JSON renders the result for BENCH_ingress.json.
func (r *IngressResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as tables.
func (r *IngressResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ingress — batched frame drain vs per-frame baseline\n")
	fmt.Fprintf(&b, "  baseline: %s\n", r.Baseline)
	fmt.Fprintf(&b, "  %-10s %12s %14s %14s %12s %10s\n",
		"size", "frames", "base ns/msg", "batch ns/msg", "MB/s", "speedup")
	for _, row := range r.Drain {
		fmt.Fprintf(&b, "  %-10s %12d %14.0f %14.0f %12.1f %9.2fx\n",
			formatBytes(row.SizeBytes), row.Frames, row.BaselineNsPerMsg,
			row.BatchedNsPerMsg, row.MBPerSec, row.Speedup)
	}
	fmt.Fprintf(&b, "\nRegistry — sharded per-topic state vs single mutex\n")
	fmt.Fprintf(&b, "  (stall = time the data-plane lock is held by one introspection scan)\n")
	fmt.Fprintf(&b, "  %-8s %6s %8s %12s %12s %14s %14s %10s\n",
		"kind", "gos", "topics", "mutex ns/op", "shard ns/op", "mutex stall", "shard stall", "speedup")
	for _, row := range r.Registry {
		fmt.Fprintf(&b, "  %-8s %6d %8d %12.1f %12.1f %13.0fns %13.0fns %9.2fx\n",
			row.Kind, row.Goroutines, row.Topics,
			row.SingleLockNsPerOp, row.ShardedNsPerOp,
			row.SingleLockStallNs, row.ShardedStallNs, row.Speedup)
	}
	return b.String()
}

// RunIngress measures the matrix.
func RunIngress(cfg IngressConfig) (*IngressResult, error) {
	cfg.fillDefaults()
	res := &IngressResult{
		Baseline: "sequential per-frame reference reader in internal/bench (wire.FrameScanner.Next, io.ReadFull, wire.Checksum: two ReadFull syscalls per frame) vs the receive pump (ros.DrainFrames); single-mutex registries for the contention cells",
	}
	for _, size := range cfg.Sizes {
		row, err := runIngressDrainCell(size, cfg)
		if err != nil {
			return nil, fmt.Errorf("ingress drain %s: %w", formatBytes(size), err)
		}
		res.Drain = append(res.Drain, row)
	}
	// The contention matrix: a mid-scale cell plus the paper-scale
	// 64-goroutine × 10k-topic cell, for both striped tables.
	cells := []struct{ gos, topics int }{
		{16, 1000},
		{cfg.Goroutines, cfg.Topics},
	}
	for _, cell := range cells {
		res.Registry = append(res.Registry,
			runObsContentionCell(cell.gos, cell.topics, cfg.Ops, cfg.Repeats))
	}
	res.Registry = append(res.Registry,
		runMasterContentionCell(cfg.Goroutines, cfg.Topics, cfg.Ops/10, cfg.Repeats))
	return res, nil
}

const (
	ingressTopic = "bench/ingress"
	ingressType  = "bench_msgs/Blob"
	ingressMD5   = "benchingress000000000000000000f"

	// Credit window for the streaming drain: consulted every
	// ingressGateStride publishes, so worst-case backlog is
	// window+stride, under the queue depth — no drops shrink the run.
	ingressWindow     = 480
	ingressGateStride = 16
	ingressQueueSize  = 512
)

// runIngressDrainCell measures one payload size in both modes,
// interleaving repeats so machine-load drift hits both evenly, and
// keeping the best run of each.
func runIngressDrainCell(size int, cfg IngressConfig) (IngressDrainRow, error) {
	n := cfg.framesFor(size)
	row := IngressDrainRow{SizeBytes: size, Frames: n,
		BaselineNsPerMsg: math.Inf(1), BatchedNsPerMsg: math.Inf(1)}
	for rep := 0; rep < cfg.Repeats; rep++ {
		for _, legacy := range []bool{true, false} {
			ns, err := runIngressDrainOnce(size, n, legacy, cfg)
			if err != nil {
				return row, err
			}
			if legacy {
				row.BaselineNsPerMsg = math.Min(row.BaselineNsPerMsg, ns)
			} else {
				row.BatchedNsPerMsg = math.Min(row.BatchedNsPerMsg, ns)
			}
		}
	}
	row.FramesPerSec = 1e9 / row.BatchedNsPerMsg
	row.MBPerSec = float64(size) / row.BatchedNsPerMsg * 1e9 / 1e6
	row.Speedup = row.BaselineNsPerMsg / row.BatchedNsPerMsg
	return row, nil
}

// runIngressDrainOnce stands up one publisher → one drain reader and
// measures a streaming run through the selected reader (legacy selects
// drainSequential): publish n frames under a credit window, wait until
// the reader has verified all of them. Returns wall-clock nanoseconds
// per frame.
func runIngressDrainOnce(size, n int, legacy bool, cfg IngressConfig) (float64, error) {
	master := ros.NewLocalMaster()
	node, err := ros.NewNode("ingress_pub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer node.Close()
	pub, err := ros.AdvertiseRaw(node, ingressTopic, ingressType, ingressMD5, false, true,
		ros.WithQueueSize(ingressQueueSize))
	if err != nil {
		return 0, err
	}
	defer pub.Close()

	conn, err := ros.DialDrain(node.Addr(), ingressTopic, ingressType, ingressMD5, "ingress_drain", false)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if err := waitSubscribers(pub.NumSubscribers, 1); err != nil {
		return 0, err
	}

	warmup := n / 10
	if warmup < 64 {
		warmup = 64
	}
	total := warmup + n

	var delivered atomic.Int64
	drainErr := make(chan error, 1)
	drain := ros.DrainFrames
	if legacy {
		drain = drainSequential
	}
	go func() {
		drainErr <- drain(conn, total, func(d int) {
			delivered.Store(int64(d))
		})
	}()

	frame := make([]byte, size)
	for i := range frame {
		frame[i] = byte(i)
	}
	waitFor := func(want int64) error {
		deadline := time.Now().Add(2 * time.Minute)
		for delivered.Load() < want {
			select {
			case err := <-drainErr:
				if err != nil {
					return fmt.Errorf("drain reader: %w", err)
				}
				return nil
			default:
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("drain stalled at %d/%d frames", delivered.Load(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}
	publish := func(seq int) error {
		if seq%ingressGateStride == 0 {
			for int64(seq)-delivered.Load() > ingressWindow {
				time.Sleep(20 * time.Microsecond)
			}
		}
		return pub.PublishFrame(frame)
	}

	for i := 0; i < warmup; i++ {
		if err := publish(i); err != nil {
			return 0, err
		}
	}
	if err := waitFor(int64(warmup)); err != nil {
		return 0, err
	}

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := publish(warmup + i); err != nil {
			return 0, err
		}
	}
	if err := waitFor(int64(total)); err != nil {
		return 0, err
	}
	elapsed := time.Since(t0)
	if err := <-drainErr; err != nil {
		return 0, fmt.Errorf("drain reader: %w", err)
	}
	return float64(elapsed) / float64(n), nil
}

// drainSequential is the frozen pre-batching reference reader the
// ingress bench measures the receive pump against: per frame, one
// ReadFull for the header (wire.FrameScanner), one for the payload, then
// the checksum — two syscalls per frame. It has DrainFrames' contract.
func drainSequential(conn net.Conn, count int, progress func(delivered int)) error {
	scan := wire.NewFrameScanner(conn, 1<<26)
	var buf []byte
	for delivered := 0; delivered < count; {
		n, crc, err := scan.Next()
		if err != nil {
			return err
		}
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		if _, err := io.ReadFull(conn, buf[:n]); err != nil {
			return err
		}
		if wire.Checksum(buf[:n]) != crc {
			continue
		}
		delivered++
		progress(delivered)
	}
	return nil
}

// contentionWorkers runs the worker half of a contention cell: workers
// goroutines each performing ops operations across the topics-wide
// namespace, every worker starting at its own offset and walking with a
// coprime stride so workers hit distinct topics at any instant — the
// distinct-topic traffic the stripes decouple from introspection.
// Returns wall-clock ns per op.
func contentionWorkers(workers, topics, ops int, op func(name string)) float64 {
	names := contentionNames(topics)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			idx := w * (topics / workers)
			for i := 0; i < ops; i++ {
				op(names[idx])
				idx += 7
				if idx >= topics {
					idx -= topics
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(time.Since(t0)) / float64(workers*ops)
}

func contentionNames(topics int) []string {
	names := make([]string, topics)
	for i := range names {
		names[i] = fmt.Sprintf("/bench/contend/topic%05d", i)
	}
	return names
}

// scanStallRepeats measures a scan hold several times and keeps the
// minimum — the steady-state hold, free of one-off cache warmup.
const scanStallRepeats = 5

// singleMutexObs replicates the pre-sharding obs.Registry layout — one
// mutex over the whole instrument map — as the contention baseline.
type singleMutexObs struct {
	mu   sync.Mutex
	pubs map[string]*obs.PubStats
}

func (r *singleMutexObs) publisher(topic string) *obs.PubStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.pubs[topic]
	if s == nil {
		s = &obs.PubStats{}
		r.pubs[topic] = s
	}
	return s
}

// scanHold measures how long one aggregation scan holds the single
// mutex: the same per-entry copy work Registry.ScanHolds performs per
// stripe, but over the whole table under one lock — exactly what the
// pre-sharding Snapshot did.
func (r *singleMutexObs) scanHold() time.Duration {
	pubs := make(map[string]*obs.PubStats)
	t0 := time.Now()
	r.mu.Lock()
	for k, v := range r.pubs {
		pubs[k] = v
	}
	r.mu.Unlock()
	d := time.Since(t0)
	_ = pubs
	return d
}

// runObsContentionCell drives the 64-goroutine × 10k-topic workload
// through the sharded registry and the single-mutex reference: workers
// hammer per-topic instrument lookups (recorded as ns/op), then the
// introspection scan's lock hold is measured on the populated tables —
// the stall bound a lookup pays when it lands mid-scan.
func runObsContentionCell(workers, topics, ops, repeats int) IngressRegistryRow {
	row := IngressRegistryRow{Kind: "obs", Goroutines: workers, Topics: topics,
		OpsPerWorker:      ops,
		SingleLockNsPerOp: math.Inf(1), ShardedNsPerOp: math.Inf(1),
		SingleLockStallNs: math.Inf(1), ShardedStallNs: math.Inf(1)}

	for rep := 0; rep < repeats; rep++ {
		single := &singleMutexObs{pubs: make(map[string]*obs.PubStats)}
		ns := contentionWorkers(workers, topics, ops, func(name string) {
			single.publisher(name).Messages.Inc()
		})
		row.SingleLockNsPerOp = math.Min(row.SingleLockNsPerOp, ns)

		sharded := obs.NewRegistry()
		ns = contentionWorkers(workers, topics, ops, func(name string) {
			sharded.Publisher(name).Messages.Inc()
		})
		row.ShardedNsPerOp = math.Min(row.ShardedNsPerOp, ns)

		for i := 0; i < scanStallRepeats; i++ {
			row.SingleLockStallNs = math.Min(row.SingleLockStallNs, float64(single.scanHold()))
			worst := time.Duration(0)
			for _, h := range sharded.ScanHolds() {
				if h > worst {
					worst = h
				}
			}
			row.ShardedStallNs = math.Min(row.ShardedStallNs, float64(worst))
		}
	}
	row.ScanOpsPerSec = 1e9 / row.ShardedStallNs
	row.Speedup = row.SingleLockStallNs / row.ShardedStallNs
	return row
}

// singleMutexMaster replicates the pre-sharding LocalMaster topic-table
// guard: one mutex over every per-topic check and the whole
// introspection walk.
type singleMutexMaster struct {
	mu     sync.Mutex
	topics map[string]*masterTopicRef
}

type masterTopicRef struct{ typeName, md5 string }

func (m *singleMutexMaster) check(topic, typeName, md5 string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts, ok := m.topics[topic]
	if !ok {
		m.topics[topic] = &masterTopicRef{typeName, md5}
		return nil
	}
	if ts.typeName != typeName || ts.md5 != md5 {
		return fmt.Errorf("mismatch")
	}
	return nil
}

// scanHold measures one TopicsInfo-equivalent walk under the single
// lock (the per-entry work matches LocalMaster.ScanHolds).
func (m *singleMutexMaster) scanHold() time.Duration {
	infos := make([]ros.TopicInfo, 0, 64)
	t0 := time.Now()
	m.mu.Lock()
	for name, ts := range m.topics {
		infos = append(infos, ros.TopicInfo{Name: name, TypeName: ts.typeName, MD5: ts.md5})
	}
	m.mu.Unlock()
	d := time.Since(t0)
	_ = infos
	return d
}

// runMasterContentionCell measures the graph plane's per-topic hot
// check (CheckTopic: the type-binding validation every register and
// watch performs) on the striped LocalMaster vs the single-mutex
// reference, plus the introspection-scan stall on both.
func runMasterContentionCell(workers, topics, ops, repeats int) IngressRegistryRow {
	row := IngressRegistryRow{Kind: "master", Goroutines: workers, Topics: topics,
		OpsPerWorker:      ops,
		SingleLockNsPerOp: math.Inf(1), ShardedNsPerOp: math.Inf(1),
		SingleLockStallNs: math.Inf(1), ShardedStallNs: math.Inf(1)}

	for rep := 0; rep < repeats; rep++ {
		single := &singleMutexMaster{topics: make(map[string]*masterTopicRef)}
		ns := contentionWorkers(workers, topics, ops, func(name string) {
			_ = single.check(name, "T", "m")
		})
		row.SingleLockNsPerOp = math.Min(row.SingleLockNsPerOp, ns)

		sharded := ros.NewLocalMaster()
		ns = contentionWorkers(workers, topics, ops, func(name string) {
			_ = sharded.CheckTopic(name, "T", "m")
		})
		row.ShardedNsPerOp = math.Min(row.ShardedNsPerOp, ns)

		for i := 0; i < scanStallRepeats; i++ {
			row.SingleLockStallNs = math.Min(row.SingleLockStallNs, float64(single.scanHold()))
			worst := time.Duration(0)
			for _, h := range sharded.ScanHolds() {
				if h > worst {
					worst = h
				}
			}
			row.ShardedStallNs = math.Min(row.ShardedStallNs, float64(worst))
		}
	}
	row.ScanOpsPerSec = 1e9 / row.ShardedStallNs
	row.Speedup = row.SingleLockStallNs / row.ShardedStallNs
	return row
}
