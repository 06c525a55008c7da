package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/internal/shm"
)

// source creates, fills, releases and checks one workload's messages.
type source[T any] interface {
	alloc(mgr *core.Manager) (*T, error)
	fill(m *T, seq uint32) error
	release(m *T) error
	seqOf(m *T) uint32
	check(k int, m *T, seq uint32) error
}

// ring indexes per-message slots by seq%ring; it exceeds every window.
const ring = 64

// teardownTimeout bounds closing a topology; attaching one is bounded
// by the workload's delivery timeout.
const teardownTimeout = 20 * time.Second

// Warm-up before any measured phase, discarded: fills pools, maps shm
// segments and grows socket buffers.
const warmup = 300 * time.Millisecond

// traceCapacity is how many messages per phase a traced pass keeps.
const traceCapacity = 20_000

// chunk is the latency sample storage unit, so that recording a sample
// never copies earlier ones.
const chunk = 1 << 16

// subState is one subscription's delivery bookkeeping. Its callback runs
// on the connection's reader goroutine; the generator reads it between
// phases.
type subState struct {
	mu     sync.Mutex
	next   uint32 // next expected seq
	ok     uint64 // in-order deliveries that passed every check
	dup    uint64 // deliveries of a seq already seen
	reason string // first failure
	lat    [][]int64
}

// record books one delivery and reports whether it is the first
// delivery of seq (so the message's pending count may drop).
func (s *subState) record(seq uint32, lat int64, err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.next {
		s.dup++
		s.fail(fmt.Sprintf("seq %d delivered again or out of order (expected %d)", seq, s.next))
		return false
	}
	if seq > s.next {
		s.fail(fmt.Sprintf("seqs %d..%d never delivered", s.next, seq-1))
	}
	s.next = seq + 1
	if err != nil {
		s.fail(fmt.Sprintf("seq %d: %v", seq, err))
		return true
	}
	s.ok++
	if n := len(s.lat); n == 0 || len(s.lat[n-1]) == chunk {
		s.lat = append(s.lat, make([]int64, 0, chunk))
	}
	last := &s.lat[len(s.lat)-1]
	*last = append(*last, lat)
	return true
}

func (s *subState) fail(reason string) {
	if s.reason == "" {
		s.reason = reason
	}
}

// take returns and clears the samples recorded since the last take.
func (s *subState) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := slices.Concat(s.lat...)
	s.lat = nil
	return out
}

// harness runs one workload's closed loop against a live topology.
type harness[T any] struct {
	w   *workload
	src source[T]
	top *topology[T]

	base    time.Time
	t0      [ring]atomic.Int64 // creation time of the message in each slot
	slotSeq [ring]atomic.Uint32
	pending [ring]atomic.Int32 // deliveries the slot's message still awaits
	done    chan struct{}      // one token per fully delivered message
	timer   *time.Timer
	subs    [nSubs]subState
	rec     atomic.Pointer[recorder] // nil when the pass is untraced

	seq     uint32 // next seq to publish
	sent    uint64
	aborted string // why the loop stopped early

	linkMu sync.Mutex
	links  []string // link state changes after a subscription connected
}

// linkEvent records a subscriber link leaving the connected state.
func (h *harness[T]) linkEvent(what string) {
	h.linkMu.Lock()
	defer h.linkMu.Unlock()
	if len(h.links) < 8 {
		h.links = append(h.links, what)
	}
}

func (h *harness[T]) now() int64 { return int64(time.Since(h.base)) }

// deliver is subscription k's callback.
func (h *harness[T]) deliver(k int, m *T) {
	in := h.now()
	seq := h.src.seqOf(m)
	slot := seq % ring
	err := h.src.check(k, m, seq)
	first := h.subs[k].record(seq, in-h.t0[slot].Load(), err)
	if rec := h.rec.Load(); rec != nil {
		r := rec.at(seq)
		r.cbIn[k].Store(in)
		r.cbOut[k].Store(h.now())
	}
	if first && h.slotSeq[slot].Load() == seq && h.pending[slot].Add(-1) == 0 {
		select {
		case h.done <- struct{}{}:
		default: // more completions than messages in flight: a bug the counts will show
		}
	}
}

// send creates, fills, publishes and releases message seq, timing each
// layer call when the pass is traced.
func (h *harness[T]) send(seq uint32) error {
	slot := seq % ring
	h.slotSeq[slot].Store(seq)
	h.pending[slot].Store(nSubs)
	h.sent++
	rec := h.rec.Load()
	t0 := h.now()
	h.t0[slot].Store(t0)
	m, err := h.src.alloc(h.top.mgr)
	if err != nil {
		return fmt.Errorf("alloc seq %d: %w", seq, err)
	}
	var r *msgRecord
	if rec != nil {
		r = rec.at(seq)
		r.t[tCreate], r.t[tAlloc] = t0, h.now()
	}
	if err := h.src.fill(m, seq); err != nil {
		return fmt.Errorf("fill seq %d: %w", seq, err)
	}
	if r != nil {
		r.t[tFill] = h.now()
	}
	if err := h.top.pub.Publish(m); err != nil {
		return fmt.Errorf("publish seq %d: %w", seq, err)
	}
	if r != nil {
		r.t[tPublish] = h.now()
	}
	if err := h.src.release(m); err != nil {
		return fmt.Errorf("release seq %d: %w", seq, err)
	}
	if r != nil {
		r.t[tRelease] = h.now()
		rec.sent(seq)
	}
	return nil
}

// await blocks for one completed message, or gives up after the
// workload's delivery timeout and names what is missing.
func (h *harness[T]) await() bool {
	h.timer.Reset(h.w.timeout)
	select {
	case <-h.done:
		h.timer.Stop()
		return true
	case <-h.timer.C:
	}
	for i := range ring {
		if n := h.pending[i].Load(); n > 0 {
			h.aborted = fmt.Sprintf("no delivery of seq %d to %d of %d subscriptions within %v",
				h.slotSeq[i].Load(), n, nSubs, h.w.timeout)
			return false
		}
	}
	h.aborted = fmt.Sprintf("completion signal lost within %v", h.w.timeout)
	return false
}

// phase is what one measured phase produced.
type phase struct {
	msgs       int
	lat        latency // of every delivery in the phase
	elapsed    time.Duration
	creditWait time.Duration
	delta      counters
	rec        *recorder
}

// minMessages is the fewest messages a measured phase sends: their
// 2*minMessages deliveries leave ten samples beyond the phase's p99.
const minMessages = 500

// run drives one phase for dur, or longer until it has sent
// minMessages: window 1 is the lockstep ping, a larger window the
// closed-loop stream.
func (h *harness[T]) run(dur time.Duration, window int, traced bool) *phase {
	p := &phase{}
	if traced {
		p.rec = newRecorder(h.seq, traceCapacity/h.w.rounds)
		h.rec.Store(p.rec)
		defer h.rec.Store(nil)
	}
	before := h.top.counters()
	start := h.now()
	end := start + int64(dur)
	inflight := 0
	for h.aborted == "" && (h.now() < end || p.msgs < minMessages) {
		for inflight == window {
			w := time.Now()
			if !h.await() {
				break
			}
			p.creditWait += time.Since(w)
			inflight--
		}
		if h.aborted != "" {
			break
		}
		if err := h.send(h.seq); err != nil {
			h.aborted = err.Error()
			break
		}
		h.seq++
		p.msgs++
		inflight++
	}
	for h.aborted == "" && inflight > 0 {
		if h.await() {
			inflight--
		}
	}
	p.elapsed = time.Duration(h.now() - start)
	p.delta = h.top.counters().minus(before)
	var samples []int64
	for k := range h.subs {
		samples = append(samples, h.subs[k].take()...)
	}
	p.lat = summarize(samples)
	return p
}

// counters are the layer counts a phase reads from the program's own
// instruments, the Go runtime and the kernel.
type counters struct {
	egressWrites, egressFrames uint64
	descSends, fallbacks       uint64
	sparse, full, saved        uint64
	pubDrops, subDrops         uint64
	corrupt, resync            uint64
	grows                      uint64
	maxLive                    int64 // high-water mark, not a delta
	mallocs                    uint64
	gcs                        uint64
	cpu                        time.Duration
}

func (a counters) plus(b counters) counters {
	return counters{
		egressWrites: a.egressWrites + b.egressWrites, egressFrames: a.egressFrames + b.egressFrames,
		descSends: a.descSends + b.descSends, fallbacks: a.fallbacks + b.fallbacks,
		sparse: a.sparse + b.sparse, full: a.full + b.full, saved: a.saved + b.saved,
		pubDrops: a.pubDrops + b.pubDrops, subDrops: a.subDrops + b.subDrops,
		corrupt: a.corrupt + b.corrupt, resync: a.resync + b.resync,
		grows: a.grows + b.grows, maxLive: max(a.maxLive, b.maxLive),
		mallocs: a.mallocs + b.mallocs, gcs: a.gcs + b.gcs, cpu: a.cpu + b.cpu,
	}
}

func (a counters) minus(b counters) counters {
	return counters{
		egressWrites: a.egressWrites - b.egressWrites, egressFrames: a.egressFrames - b.egressFrames,
		descSends: a.descSends - b.descSends, fallbacks: a.fallbacks - b.fallbacks,
		sparse: a.sparse - b.sparse, full: a.full - b.full, saved: a.saved - b.saved,
		pubDrops: a.pubDrops - b.pubDrops, subDrops: a.subDrops - b.subDrops,
		corrupt: a.corrupt - b.corrupt, resync: a.resync - b.resync,
		grows: a.grows - b.grows, maxLive: a.maxLive,
		mallocs: a.mallocs - b.mallocs, gcs: a.gcs - b.gcs, cpu: a.cpu - b.cpu,
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // kilobytes on Linux
}

// topology is one live graph: an in-process master reached over
// loopback, a publisher node and a subscriber node with two
// subscriptions.
type topology[T any] struct {
	reg     *obs.Registry
	mgr     *core.Manager
	store   *shm.Store
	server  *ros.MasterServer
	masters []*ros.RemoteMaster
	nodes   []*ros.Node
	pub     *ros.Publisher[T]
	subs    []*ros.Subscriber
	times   setupTimes
}

// setupTimes are one set-up's graph-plane spans: how long each took,
// and where it began on the run clock.
type setupTimes struct {
	total, advertise, attach       time.Duration
	subscribe                      [nSubs]time.Duration
	startAt, advertiseAt, attachAt int64
	subscribeAt                    [nSubs]int64
}

const topic = "/perfbench"

// setup builds a topology, timing master start to every subscription
// attached.
func (h *harness[T]) setup() (*topology[T], error) {
	t := &topology[T]{reg: obs.NewRegistry(), mgr: core.NewManager()}
	ok := false
	defer func() {
		if !ok {
			_ = t.close() // the setup error is the one to report
		}
	}()
	start := time.Now()
	t.times.startAt = h.now()
	var err error
	t.server, err = ros.NewMasterServer("127.0.0.1:0", ros.WithServerMetrics(t.reg))
	if err != nil {
		return nil, err
	}
	pubOpts := []ros.Option{ros.WithMetrics(t.reg)}
	if h.w.shm {
		t.store, err = shm.NewStore(shm.Options{Stats: t.reg.Shm()})
		if err != nil {
			return nil, fmt.Errorf("shm store: %w", err)
		}
		t.mgr.SetBackingStore(t.store)
		pubOpts = append(pubOpts, ros.WithShmStore(t.store))
	}
	pubNode, err := t.node("perfbench_pub", pubOpts...)
	if err != nil {
		return nil, err
	}
	subNode, err := t.node("perfbench_sub", ros.WithMetrics(t.reg))
	if err != nil {
		return nil, err
	}
	a := time.Now()
	t.times.advertiseAt = h.now()
	t.pub, err = ros.Advertise[T](pubNode, topic)
	if err != nil {
		return nil, fmt.Errorf("advertise: %w", err)
	}
	t.times.advertise = time.Since(a)
	// Set-up waits on the subscribers' link events: polling instead
	// either starves the network poller (spinning) or quantizes the wait
	// to the host's ~1 ms timer overshoot (sleeping).
	connected := make(chan struct{}, nSubs)
	for k := 0; k < nSubs; k++ {
		opts := []ros.SubOption{ros.WithTransport(h.w.transports[k]), ros.WithConnState(func(addr string, st ros.ConnState) {
			if st != ros.ConnConnected {
				h.linkEvent(fmt.Sprintf("subscription %d link to %s: %v", k, addr, st))
				return
			}
			select {
			case connected <- struct{}{}:
			default: // a reconnect after attach; its Retrying event is the reported one
			}
		})}
		if h.w.fields[k] != nil {
			opts = append(opts, ros.WithFields(h.w.fields[k]...))
		}
		s := time.Now()
		t.times.subscribeAt[k] = h.now()
		sub, err := ros.Subscribe(subNode, topic, func(m *T) { h.deliver(k, m) }, opts...)
		if err != nil {
			return nil, fmt.Errorf("subscribe %d: %w", k, err)
		}
		t.times.subscribe[k] = time.Since(s)
		t.subs = append(t.subs, sub)
	}
	w := time.Now()
	t.times.attachAt = h.now()
	timeout := time.NewTimer(h.w.timeout)
	defer timeout.Stop()
	for k := 0; k < nSubs; k++ {
		select {
		case <-connected:
		case <-timeout.C:
			return nil, fmt.Errorf("attach incomplete after %v: %d of %d subscriptions connected",
				h.w.timeout, k, nSubs)
		}
	}
	// The publisher counts a link just after answering its handshake, a
	// moment before the subscriber can report it.
	for t.pub.NumSubscribers() < nSubs {
		if time.Since(w) > h.w.timeout {
			return nil, fmt.Errorf("attach incomplete after %v: publisher sees %d of %d subscriptions",
				h.w.timeout, t.pub.NumSubscribers(), nSubs)
		}
		runtime.Gosched()
	}
	t.times.attach = time.Since(w)
	t.times.total = time.Since(start)
	ok = true
	return t, nil
}

// node dials the master and starts a node on it.
func (t *topology[T]) node(name string, opts ...ros.Option) (*ros.Node, error) {
	m, err := ros.DialMaster(t.server.Addr(), ros.WithMasterMetrics(t.reg))
	if err != nil {
		return nil, fmt.Errorf("dial master: %w", err)
	}
	t.masters = append(t.masters, m)
	n, err := ros.NewNode(name, append(opts, ros.WithMaster(m))...)
	if err != nil {
		return nil, err
	}
	t.nodes = append(t.nodes, n)
	return n, nil
}

// close tears the topology down, bounded by teardownTimeout.
func (t *topology[T]) close() error {
	done := make(chan error, 1)
	go func() { done <- t.teardown() }()
	select {
	case err := <-done:
		return err
	case <-time.After(teardownTimeout):
		return fmt.Errorf("teardown did not finish within %v", teardownTimeout)
	}
}

func (t *topology[T]) teardown() error {
	for _, s := range t.subs {
		s.Close()
	}
	if t.pub != nil {
		t.pub.Close()
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		t.nodes[i].Close()
	}
	for _, m := range t.masters {
		m.Close()
	}
	if t.server != nil {
		t.server.Close()
	}
	if t.store == nil {
		return nil
	}
	deadline := time.Now().Add(teardownTimeout / 2)
	for !t.store.Idle() {
		if time.Now().After(deadline) {
			return fmt.Errorf("shm store still holds slot references %v after teardown", teardownTimeout/2)
		}
		time.Sleep(time.Millisecond)
	}
	if err := t.store.Close(); err != nil {
		return fmt.Errorf("shm store close: %w", err)
	}
	<-t.store.TeardownDone()
	return nil
}

// counters reads the layer counts now.
func (t *topology[T]) counters() counters {
	snap := t.reg.Snapshot()
	st := t.mgr.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		egressWrites: snap.Egress.Writes, egressFrames: snap.Egress.Frames,
		descSends: snap.Shm.DescriptorSends, fallbacks: snap.Shm.Fallbacks,
		sparse: snap.Fieldwire.SparseFrames, full: snap.Fieldwire.FullFrames, saved: snap.Fieldwire.BytesSaved,
		pubDrops: snap.Publishers[topic].Drops, subDrops: snap.Subscribers[topic].Drops,
		grows: st.Grows, maxLive: st.MaxLive,
		mallocs: ms.Mallocs, gcs: uint64(ms.NumGC), cpu: cpuTime(),
	}
	for _, s := range t.subs {
		c.corrupt += s.CorruptFrames()
		c.resync += s.ResyncedBytes()
	}
	return c
}

// runResult is everything one benchmark invocation measured.
type runResult struct {
	setups    []setupTimes
	passes    []*pass // untraced, then traced when --trace 1
	attempted uint64
	failed    uint64
	reasons   []string
	errs      []string // failures outside delivery counts (e.g. a leaked shm slot)
	fullBytes int      // arena bytes of one published message
	stealPct  float64  // share of the host's CPU time the hypervisor stole while measuring; -1 unknown
}

// pass is one warm measurement: rounds of the lockstep ping phase,
// each followed by a stream phase.
type pass struct {
	ping, stream []*phase
}

// execute runs workload w: set up several times (keeping the last
// topology), warm up, then measure an untraced pass and, when tracing,
// a traced pass of the same length. A pass alternates w.rounds ping and
// stream phases, half the measured seconds each, so that a burst of
// load from elsewhere on the host spoils only a few rounds and the
// median over rounds stays put. The traced pass's phases interleave
// with the untraced pass's, so their difference is the tracing
// overhead, not a change in the host between them.
func execute[T any](c *config, w *workload, src source[T]) *runResult {
	h := &harness[T]{w: w, src: src, base: time.Now(),
		done: make(chan struct{}, w.window), timer: time.NewTimer(time.Hour)}
	h.timer.Stop()
	res := &runResult{}
	for i := 0; i < setupRounds; i++ {
		top, err := h.setup()
		if err != nil {
			res.attempted, res.failed = nSubs, nSubs
			res.reasons = append(res.reasons, "setup: "+err.Error())
			return res
		}
		res.setups = append(res.setups, top.times)
		if i < setupRounds-1 {
			if err := top.close(); err != nil {
				res.errs = append(res.errs, err.Error())
			}
			continue
		}
		h.top = top
	}

	h.run(warmup, 1, false)
	h.run(warmup, w.window, false)
	steal0, total0, ok0 := cpuTicks()
	passes := 1
	if c.trace {
		passes = 2
	}
	dur := time.Duration(c.seconds * float64(time.Second) / float64(2*w.rounds))
	for i := 0; i < passes; i++ {
		res.passes = append(res.passes, &pass{})
	}
	for r := 0; r < w.rounds; r++ {
		for i, p := range res.passes {
			p.ping = append(p.ping, h.run(dur, 1, i == 1))
		}
		for i, p := range res.passes {
			p.stream = append(p.stream, h.run(dur, w.window, i == 1))
		}
	}
	res.stealPct = -1
	if steal1, total1, ok1 := cpuTicks(); ok0 && ok1 && total1 > total0 {
		res.stealPct = 100 * float64(steal1-steal0) / float64(total1-total0)
	}
	if used, ok := h.fullSize(); ok {
		res.fullBytes = used
	}
	if err := h.top.close(); err != nil {
		res.errs = append(res.errs, err.Error())
	}
	if h.aborted != "" {
		res.reasons = append(res.reasons, h.aborted)
	}
	h.linkMu.Lock()
	res.reasons = append(res.reasons, h.links...)
	h.linkMu.Unlock()
	var ok, dup uint64
	for k := range h.subs {
		s := &h.subs[k]
		s.mu.Lock()
		ok, dup = ok+s.ok, dup+s.dup
		if s.reason != "" {
			res.reasons = append(res.reasons, fmt.Sprintf("subscription %d: %s", k, s.reason))
		}
		s.mu.Unlock()
	}
	res.attempted = h.sent * nSubs
	res.failed = res.attempted - min(ok, res.attempted) + dup
	return res
}

// fullSize reports the arena bytes of one complete message, the base
// for the masked subscription's wire bytes.
func (h *harness[T]) fullSize() (int, bool) {
	m, err := h.src.alloc(h.top.mgr)
	if err != nil {
		return 0, false
	}
	defer h.src.release(m)
	if h.src.fill(m, 0) != nil {
		return 0, false
	}
	n, err := core.UsedSize(m)
	return n, err == nil
}
