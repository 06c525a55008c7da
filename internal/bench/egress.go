package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/wire"
	"rossf/msgs/sensor_msgs"
)

// EgressConfig parameterizes the TCP fan-out throughput matrix: one
// publisher streaming to N loopback-TCP subscribers as fast as a credit
// window allows. Unlike the lockstep IPC benchmark, the publisher keeps
// a backlog in flight, so the send loop sees queued frames and the
// batched egress path actually engages. Every cell is measured twice —
// once against the frozen per-frame reference publisher below and once
// through the library's send loop — so the result carries its own
// baseline.
type EgressConfig struct {
	Sizes    []int // payload sizes in bytes
	Fanouts  []int // subscriber counts
	Messages int   // measured messages at the smallest size (scaled down for larger payloads)
	Repeats  int   // runs per (cell, mode); the best run is reported

	// Registry receives the run's transport instruments; the batched
	// rows record the observed frames-per-write from it as proof the
	// batch path engaged. Defaults to a private registry.
	Registry *obs.Registry
}

func (c *EgressConfig) fillDefaults() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{4 << 10, 64 << 10, 1 << 20}
	}
	if len(c.Fanouts) == 0 {
		c.Fanouts = []int{1, 4, 8}
	}
	if c.Messages == 0 {
		c.Messages = 3000
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// messagesFor scales the per-cell message count so every cell moves a
// comparable byte volume: the configured count at <=16 KiB, scaled
// down for larger payloads. The floor keeps megabyte-payload runs
// long enough (~200 ms) that TCP window ramp-up and scheduler noise
// amortize — at 64 messages a 1 MiB cell is a ~45 ms run whose
// mode-to-mode ratio swings ±15% run to run.
func (c *EgressConfig) messagesFor(size int) int {
	n := c.Messages
	if size > 16<<10 {
		n = c.Messages * (16 << 10) / size
	}
	if n < 256 {
		n = 256
	}
	return n
}

// EgressRow is one (size, fanout) cell. Baseline numbers come from the
// frozen reference publisher (two writes per frame, CRC recomputed per
// connection) run in the same binary immediately before the batched
// measurement.
type EgressRow struct {
	SizeBytes        int     `json:"size_bytes"`
	Subscribers      int     `json:"subscribers"`
	Messages         int     `json:"messages"`
	BaselineNsPerMsg float64 `json:"baseline_ns_per_msg"`
	BatchedNsPerMsg  float64 `json:"batched_ns_per_msg"`
	MsgsPerSec       float64 `json:"msgs_per_sec"`
	MBPerSec         float64 `json:"mb_per_sec"` // aggregate across subscribers
	FramesPerWrite   float64 `json:"frames_per_write"`
	Speedup          float64 `json:"speedup_vs_baseline"`
}

// EgressResult is the full matrix, serialized to BENCH_egress.json by
// the bench CLI.
type EgressResult struct {
	Baseline string      `json:"baseline"`
	Rows     []EgressRow `json:"rows"`
}

// JSON renders the result for BENCH_egress.json.
func (r *EgressResult) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Format renders the matrix as a table.
func (r *EgressResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Egress — streaming TCP fan-out, batched vs per-frame baseline\n")
	fmt.Fprintf(&b, "  baseline: %s\n", r.Baseline)
	fmt.Fprintf(&b, "  %-10s %-6s %14s %14s %12s %12s %10s\n",
		"size", "subs", "base ns/msg", "batch ns/msg", "agg MB/s", "frames/wr", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %-6d %14.0f %14.0f %12.1f %12.1f %9.2fx\n",
			formatBytes(row.SizeBytes), row.Subscribers, row.BaselineNsPerMsg,
			row.BatchedNsPerMsg, row.MBPerSec, row.FramesPerWrite, row.Speedup)
	}
	return b.String()
}

// RunEgress measures the matrix.
func RunEgress(cfg EgressConfig) (*EgressResult, error) {
	cfg.fillDefaults()
	res := &EgressResult{
		Baseline: "frozen per-frame reference publisher: one goroutine and queue per connection, CRC recomputed per connection, header and payload as two writes (referencePublisher)",
	}
	for _, size := range cfg.Sizes {
		for _, fanout := range cfg.Fanouts {
			row, err := runEgressCell(size, fanout, cfg)
			if err != nil {
				return nil, fmt.Errorf("egress %s/%d: %w", formatBytes(size), fanout, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// runEgressCell measures one (size, fanout) cell in both modes,
// interleaving repeats (reference, batched, reference, ...) so slow drift in
// machine load hits both modes evenly, and keeping the best run of
// each.
func runEgressCell(size, fanout int, cfg EgressConfig) (EgressRow, error) {
	n := cfg.messagesFor(size)
	row := EgressRow{SizeBytes: size, Subscribers: fanout, Messages: n,
		BaselineNsPerMsg: math.Inf(1), BatchedNsPerMsg: math.Inf(1)}
	before := cfg.Registry.Snapshot().Egress
	for rep := 0; rep < cfg.Repeats; rep++ {
		for _, reference := range []bool{true, false} {
			ns, err := runEgressOnce(size, fanout, n, reference, cfg)
			if err != nil {
				return row, err
			}
			if reference {
				row.BaselineNsPerMsg = math.Min(row.BaselineNsPerMsg, ns)
			} else {
				row.BatchedNsPerMsg = math.Min(row.BatchedNsPerMsg, ns)
			}
		}
	}
	after := cfg.Registry.Snapshot().Egress
	if writes := after.Writes - before.Writes; writes > 0 {
		row.FramesPerWrite = float64(after.Frames-before.Frames) / float64(writes)
	}
	row.MsgsPerSec = 1e9 / row.BatchedNsPerMsg
	row.MBPerSec = float64(size) * float64(fanout) / row.BatchedNsPerMsg * 1e9 / 1e6
	row.Speedup = row.BaselineNsPerMsg / row.BatchedNsPerMsg
	return row, nil
}

// Streaming flow control: the publisher keeps up to egressWindow
// messages in flight past the slowest subscriber. The window is large
// enough that the write loop always finds a backlog (batches form) and
// small enough that the publish queue never overflows (no drops skew
// the count).
const (
	egressWindow    = 128
	egressQueueSize = 2 * egressWindow
)

// runEgressOnce stands up a fresh topology and measures one streaming
// run: publish n messages under the credit window, then wait until
// every subscriber has received all of them. reference selects the
// frozen reference publisher instead of the library's. Returns
// wall-clock nanoseconds per published message.
func runEgressOnce(size, fanout, n int, reference bool, cfg EgressConfig) (float64, error) {
	master := ros.NewLocalMaster()
	pubNode, err := ros.NewNode("egress_pub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer pubNode.Close()
	subNode, err := ros.NewNode("egress_sub", ros.WithMaster(master), ros.WithMetrics(cfg.Registry))
	if err != nil {
		return 0, err
	}
	defer subNode.Close()

	received := make([]atomic.Int64, fanout)
	for i := 0; i < fanout; i++ {
		counter := &received[i]
		sub, err := ros.Subscribe(subNode, "bench/egress", func(m *sensor_msgs.ImageSF) {
			counter.Add(1)
		}, ros.WithTransport(ros.TransportTCP))
		if err != nil {
			return 0, err
		}
		defer sub.Close()
	}
	var pub egressPublisher
	if reference {
		pub, err = newReferencePublisher(master, "bench/egress")
	} else {
		pub, err = ros.Advertise[sensor_msgs.ImageSF](pubNode, "bench/egress",
			ros.WithQueueSize(egressQueueSize))
	}
	if err != nil {
		return 0, err
	}
	defer pub.Close()
	if err := waitSubscribers(pub.NumSubscribers, fanout); err != nil {
		return 0, err
	}

	slowest := func() int64 {
		min := received[0].Load()
		for i := 1; i < fanout; i++ {
			if v := received[i].Load(); v < min {
				min = v
			}
		}
		return min
	}
	capacity := size + 8192
	publish := func(seq int) error {
		for int64(seq)-slowest() > egressWindow {
			time.Sleep(20 * time.Microsecond)
		}
		img, err := core.NewWithCapacity[sensor_msgs.ImageSF](capacity)
		if err != nil {
			return err
		}
		img.Header.Seq = uint32(seq)
		if err := img.Data.Resize(size); err != nil {
			return err
		}
		d := img.Data.Slice()
		d[0], d[size-1] = byte(seq), byte(seq)
		if err := pub.Publish(img); err != nil {
			return err
		}
		_, err = core.Release(img)
		return err
	}
	waitAll := func(want int64) error {
		deadline := time.Now().Add(2 * time.Minute)
		for slowest() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("delivery stalled: slowest subscriber at %d/%d", slowest(), want)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	}

	warmup := n / 10
	if warmup < 16 {
		warmup = 16
	}
	for i := 0; i < warmup; i++ {
		if err := publish(i); err != nil {
			return 0, err
		}
	}
	if err := waitAll(int64(warmup)); err != nil {
		return 0, err
	}

	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := publish(warmup + i); err != nil {
			return 0, err
		}
	}
	if err := waitAll(int64(warmup + n)); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// egressPublisher is what a streaming run publishes through.
type egressPublisher interface {
	Publish(*sensor_msgs.ImageSF) error
	NumSubscribers() int
	Close()
}

// referencePublisher is the frozen egress baseline: the per-frame
// publisher the library shipped before batched egress, kept here as a
// fixed reference (it is never changed to track the library). It
// registers its own listener with the master, answers the handshake
// itself, and runs one goroutine and one queue per connection; each
// frame's checksum is computed per connection and its header and
// payload go out as two conn.Write calls.
type referencePublisher struct {
	ln         net.Listener
	unregister func()
	wg         sync.WaitGroup

	mu     sync.Mutex
	conns  []*referenceConn
	closed bool
}

type referenceConn struct {
	conn net.Conn
	ch   chan core.Ref
}

func newReferencePublisher(master ros.Master, topic string) (*referencePublisher, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var img sensor_msgs.ImageSF
	p := &referencePublisher{ln: ln}
	p.unregister, err = master.RegisterPublisher(topic, ros.PublisherInfo{NodeName: "egress_reference",
		Addr: ln.Addr().String(), TypeName: img.ROSMessageType(), MD5: img.ROSMD5Sum()})
	if err != nil {
		ln.Close()
		return nil, err
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.serve(conn)
			}()
		}
	}()
	return p, nil
}

// serve answers one subscriber's handshake, then writes its queue.
func (p *referencePublisher) serve(conn net.Conn) {
	defer conn.Close()
	var n [4]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		return
	}
	body := make([]byte, binary.LittleEndian.Uint32(n[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		return
	}
	req, err := wire.ParseHeader(body)
	if err != nil {
		return
	}
	endian := "little"
	if !core.NativeLittleEndian() {
		endian = "big"
	}
	reply := map[string]string{"type": req["type"], "md5sum": req["md5sum"],
		"callerid": "egress_reference", "format": "sfm", "endian": endian}
	if _, err := conn.Write(wire.AppendHeader(nil, reply)); err != nil {
		return
	}
	c := &referenceConn{conn: conn, ch: make(chan core.Ref, egressQueueSize)}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns = append(p.conns, c)
	p.mu.Unlock()
	var werr error
	for r := range c.ch {
		if werr == nil {
			werr = writeReferenceFrame(conn, r.Bytes())
		}
		r.Release()
	}
}

func writeReferenceFrame(conn net.Conn, payload []byte) error {
	var hdr [wire.FrameHeaderSize]byte
	wire.PutFrameHeader(hdr[:], len(payload), wire.Checksum(payload))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(payload)
	return err
}

// Publish queues one reference to m on every connection.
func (p *referencePublisher) Publish(m *sensor_msgs.ImageSF) error {
	if err := core.MarkPublished(m); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		r, err := core.NewRef(m)
		if err != nil {
			return err
		}
		c.ch <- r
	}
	return nil
}

func (p *referencePublisher) NumSubscribers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close withdraws the advertisement and ends every connection once its
// queue is written.
func (p *referencePublisher) Close() {
	p.unregister()
	p.ln.Close()
	p.mu.Lock()
	p.closed = true
	for _, c := range p.conns {
		close(c.ch)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
