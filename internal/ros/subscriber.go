package ros

import (
	"fmt"
	"hash/fnv"
	"log"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// TransportMode selects how a subscriber reaches publishers.
type TransportMode int

const (
	// TransportAuto attaches intra-process when the publisher shares the
	// process, otherwise dials TCP. This is the default.
	TransportAuto TransportMode = iota
	// TransportTCP always dials the publisher's listener, even in the
	// same process — the configuration of the paper's Fig. 13, where pub
	// and sub are separate entities exchanging bytes over loopback.
	TransportTCP
	// TransportInproc only attaches to same-process publishers.
	TransportInproc
	// TransportShm dials publishers like TransportTCP but offers the
	// shared-memory transport in the handshake: same-machine SFM topics
	// then exchange 24-byte descriptors into mmap'd segments instead of
	// payload bytes. Publishers that cannot serve shm — remote host,
	// different boot, no store, old build — transparently fall back to
	// TCP framing on the same connection address. TransportAuto also
	// offers shm for the links it dials; TransportShm additionally skips
	// the intra-process attachment path, forcing the cross-process
	// machinery even inside one process (useful for tests and
	// benchmarks).
	TransportShm
)

// ConnState describes the health of one publisher link, as reported
// through the WithConnState callback — the subscriber-visible
// degradation signal. A link cycles Connected -> Retrying -> Connected
// under transient faults; it reaches GaveUp only when a bounded
// RetryPolicy exhausts its attempts (or the publisher permanently
// refuses the handshake), after which the link is abandoned until the
// master announces the publisher again.
type ConnState int

const (
	// ConnConnected: the handshake completed and frames are flowing.
	ConnConnected ConnState = iota
	// ConnRetrying: the link failed and the subscriber is backing off
	// before the next dial.
	ConnRetrying
	// ConnGaveUp: the retry budget is exhausted or the publisher
	// rejected the handshake; the subscriber will not redial this
	// address unless the master re-announces it.
	ConnGaveUp
)

// String implements fmt.Stringer.
func (s ConnState) String() string {
	switch s {
	case ConnConnected:
		return "connected"
	case ConnRetrying:
		return "retrying"
	case ConnGaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("ConnState(%d)", int(s))
	}
}

// RetryPolicy bounds the subscriber's reconnect loop: exponential
// backoff between InitialBackoff and MaxBackoff with multiplicative
// growth and randomized jitter. Zero fields take the defaults of
// DefaultRetryPolicy.
type RetryPolicy struct {
	// InitialBackoff is the delay before the first redial.
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Multiplier is the per-attempt growth factor (>= 1).
	Multiplier float64
	// Jitter randomizes each delay within ±Jitter fraction of its
	// nominal value, de-synchronizing reconnect storms (0..1).
	Jitter float64
	// MaxAttempts is the number of consecutive failed dials before the
	// link reports ConnGaveUp and is abandoned; 0 retries until the
	// subscription closes or the master withdraws the publisher.
	MaxAttempts int
}

// DefaultRetryPolicy is the reconnect schedule used unless WithRetry
// overrides it: 50ms doubling to a 2s ceiling with ±50% jitter,
// retrying for as long as the publisher remains registered.
var DefaultRetryPolicy = RetryPolicy{
	InitialBackoff: 50 * time.Millisecond,
	MaxBackoff:     2 * time.Second,
	Multiplier:     2,
	Jitter:         0.5,
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = DefaultRetryPolicy.InitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultRetryPolicy.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultRetryPolicy.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = DefaultRetryPolicy.Jitter
	}
	return p
}

// backoff returns the jittered delay before attempt n (1-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := float64(p.InitialBackoff) * math.Pow(p.Multiplier, float64(attempt-1))
	if d > float64(p.MaxBackoff) || math.IsInf(d, 1) || math.IsNaN(d) {
		d = float64(p.MaxBackoff)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rand.Float64()-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// SubOption configures Subscribe.
type SubOption func(*subConfig)

type subConfig struct {
	transport TransportMode
	manager   *core.Manager
	queueSize int
	retry     RetryPolicy
	connState func(addr string, state ConnState)
	noRelay   bool
	fields    []string // field mask offered at handshake (see WithFields)
}

// WithTransport selects the subscriber transport mode.
func WithTransport(m TransportMode) SubOption {
	return func(c *subConfig) { c.transport = m }
}

// WithSubscriberQueue dispatches callbacks asynchronously through a
// bounded queue of depth n, dropping the oldest pending message when
// full — roscpp's subscribe queue_size semantics. The default (0) runs
// callbacks synchronously on the reader goroutine.
func WithSubscriberQueue(n int) SubOption {
	return func(c *subConfig) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithManager selects the arena manager for received serialization-free
// messages (default core.Default()).
func WithManager(m *core.Manager) SubOption {
	return func(c *subConfig) { c.manager = m }
}

// WithRetry replaces the reconnect schedule (default
// DefaultRetryPolicy). Zero fields keep their defaults.
func WithRetry(p RetryPolicy) SubOption {
	return func(c *subConfig) { c.retry = p }
}

// WithConnState registers a callback observing each publisher link's
// health transitions (Connected, Retrying, GaveUp), keyed by the
// publisher's address. The callback runs on transport goroutines and
// must not block; use it to degrade gracefully — switch to a fallback
// sensor, raise an alert — instead of silently losing data.
func WithConnState(cb func(addr string, state ConnState)) SubOption {
	return func(c *subConfig) { c.connState = cb }
}

// WithoutRelay makes the subscription ignore relay-tier endpoints and
// attach straight to origin publishers. Relays use it for their own
// upstream subscription (a relay feeding itself from another relay
// would loop); applications use it when they need the origin's
// latency rather than the relay's capacity.
func WithoutRelay() SubOption {
	return func(c *subConfig) { c.noRelay = true }
}

// Subscriber is a topic subscription. Create with Subscribe, release
// with Close.
type Subscriber struct {
	node  *Node
	topic string

	cancelWatch func()
	typeName    string
	md5         string
	sink        *sink          // the delivery half of every receive pump
	queue       *dispatchQueue // nil = synchronous callbacks
	retry       RetryPolicy
	transport   TransportMode
	connState   func(addr string, state ConnState)
	noRelay     bool
	fields      []string      // field mask offered at handshake
	stats       *obs.SubStats // nil when the node's metrics are disabled

	corrupt atomic.Uint64 // frames rejected by checksum
	resyncs atomic.Uint64 // bytes skipped resynchronizing damaged streams

	mu     sync.Mutex
	conns  map[string]*subConn // keyed by publisher address
	inproc map[*pubEndpoint]struct{}
	closed bool
	// loggedUnavailable de-duplicates the "publishers exist but none is
	// reachable over this transport" warning (satellite of the shm work:
	// a TransportInproc/TransportShm subscription facing only
	// unreachable publishers used to stay silently empty).
	loggedUnavailable bool

	wg sync.WaitGroup
}

// CorruptFrames reports how many received frames failed their checksum
// and were dropped instead of being delivered.
func (s *Subscriber) CorruptFrames() uint64 { return s.corrupt.Load() }

// ResyncedBytes reports how many stream bytes were discarded while
// hunting for a frame boundary after damage.
func (s *Subscriber) ResyncedBytes() uint64 { return s.resyncs.Load() }

// noteStreamDamage folds a connection's still-unfolded resync bytes
// into the subscription total when its pump exits (per-frame folds via
// noteResync keep the counter live mid-stream), and returns the pump's
// batch buffer to the ingress pool for the next connection.
func (s *Subscriber) noteStreamDamage(fr *frameReader) {
	s.noteResync(fr)
	fr.Release()
}

// noteResync folds any bytes the reader skipped resynchronizing since
// the last fold. The pump calls it after every frame — almost always a
// zero delta and no atomic touched — so introspection sees stream
// damage while the connection is still alive.
func (s *Subscriber) noteResync(fr *frameReader) {
	if d := fr.skippedDelta(); d != 0 {
		s.resyncs.Add(d)
	}
}

// noteCorrupt records one frame rejected by an integrity check, both in
// the subscription's own counter and the observability registry.
func (s *Subscriber) noteCorrupt() {
	s.corrupt.Add(1)
	if s.stats != nil {
		s.stats.Corrupt.Inc()
	}
}

// notifyState reports a link transition to the WithConnState callback,
// if any.
func (s *Subscriber) notifyState(addr string, state ConnState) {
	if s.connState != nil {
		s.connState(addr, state)
	}
}

func (s *Subscriber) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// dispatchQueue decouples callbacks from reader goroutines with
// drop-oldest overflow. Each item carries the callback invocation and a
// drop action that releases resources when the item is evicted.
type dispatchQueue struct {
	ch       chan dispatchItem
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

type dispatchItem struct {
	run  func()
	drop func()
}

func newDispatchQueue(depth int) *dispatchQueue {
	q := &dispatchQueue{
		ch:   make(chan dispatchItem, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go q.loop()
	return q
}

func (q *dispatchQueue) loop() {
	defer close(q.done)
	for {
		select {
		case <-q.stop:
			return
		case it := <-q.ch:
			it.run()
		}
	}
}

// enqueue mirrors pubConn.enqueue's drop-oldest discipline, including
// the post-send recheck against a concurrent close.
func (q *dispatchQueue) enqueue(it dispatchItem) {
	for {
		select {
		case <-q.stop:
			it.drop()
			return
		case q.ch <- it:
			select {
			case <-q.stop:
				select {
				case old := <-q.ch:
					old.drop()
				default:
				}
			default:
			}
			return
		default:
		}
		select {
		case old := <-q.ch:
			old.drop()
		default:
		}
	}
}

func (q *dispatchQueue) close() {
	q.stopOnce.Do(func() {
		close(q.stop)
		<-q.done
		for {
			select {
			case it := <-q.ch:
				it.drop()
			default:
				return
			}
		}
	})
}

// dispatch routes one delivery through the queue, or runs it inline
// when the subscription is synchronous.
func (s *Subscriber) dispatch(run, drop func()) {
	if s.queue == nil {
		run()
		return
	}
	s.queue.enqueue(dispatchItem{run: run, drop: drop})
}

// Subscribe registers a callback for every message arriving on topic —
// the analog of NodeHandle::subscribe. The message type decides the
// regime:
//
//   - regular messages: each frame is de-serialized into a fresh *T (the
//     callback's Image::ConstPtr);
//   - serialization-free messages: the received buffer itself becomes
//     the *T (the paper's dummy de-serialization routine, Fig. 9). The
//     message is released when the callback returns; call core.Retain
//     inside the callback to keep it alive longer.
//
// The callback runs on the connection's reader goroutine; a slow
// callback applies backpressure on that one connection, as in roscpp
// with queue size 0.
func Subscribe[T any](n *Node, topic string, cb func(*T), opts ...SubOption) (*Subscriber, error) {
	typeName, md5, ok := typeInfoOf[T]()
	if !ok {
		return nil, fmt.Errorf("ros: type %T does not implement ros.Message", new(T))
	}
	cfg := subConfig{manager: core.Default()}
	for _, o := range opts {
		o(&cfg)
	}

	s := &Subscriber{
		node:      n,
		topic:     topic,
		typeName:  typeName,
		md5:       md5,
		retry:     cfg.retry.withDefaults(),
		transport: cfg.transport,
		connState: cfg.connState,
		noRelay:   cfg.noRelay,
		fields:    cfg.fields,
		stats:     n.metrics.Subscriber(topic),
		conns:     make(map[string]*subConn),
		inproc:    make(map[*pubEndpoint]struct{}),
	}
	if cfg.queueSize > 0 {
		s.queue = newDispatchQueue(cfg.queueSize)
	}
	switch {
	case isSFMType[T]():
		layout, err := core.LayoutOf[T]()
		if err != nil {
			return nil, fmt.Errorf("ros: subscribe %s: %w", typeName, err)
		}
		s.sink = sfmSink(s, cb, cfg.manager, layout)
	case isSerializableType[T]():
		if len(cfg.fields) > 0 {
			return nil, fmt.Errorf("ros: subscribe %s: WithFields requires a serialization-free message type", typeName)
		}
		s.sink = ros1Sink(s, cb)
	default:
		return nil, fmt.Errorf("ros: type %T implements neither Serializable nor SFMessage", new(T))
	}

	if err := n.registerSub(s); err != nil {
		return nil, err
	}
	cancel, err := n.master.WatchPublishers(topic, typeName, md5, func(pubs []PublisherInfo) {
		s.onPublishers(pubs, cfg.transport)
	})
	if err != nil {
		n.unregisterSub(s)
		return nil, err
	}
	s.cancelWatch = cancel
	return s, nil
}

// Topic returns the subscribed topic name.
func (s *Subscriber) Topic() string { return s.topic }

// NumPublishers returns the number of currently attached publishers.
func (s *Subscriber) NumPublishers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns) + len(s.inproc)
}

// onPublishers reconciles the attachment set with the master's current
// publisher list. It must not block (master callback contract), so new
// dials happen on fresh goroutines.
func (s *Subscriber) onPublishers(pubs []PublisherInfo, mode TransportMode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}

	// Relay delegation: when relay-tier endpoints exist and this
	// subscription may use TCP and has not opted out, attach to exactly
	// ONE relay — chosen by a stable hash so a fleet of subscribers
	// spreads across the relays — and to nothing else. A relay mirrors
	// every origin publisher of the topic, so attaching to an origin (or
	// a second relay) as well would deliver duplicates. In every other
	// case relay endpoints are ignored entirely and the classic per-
	// publisher reconciliation below applies.
	var relays []string
	if mode != TransportInproc && !s.noRelay {
		for _, p := range pubs {
			if p.Relay && p.Addr != "" {
				relays = append(relays, p.Addr)
			}
		}
	}
	useRelay := len(relays) > 0

	wantTCP := make(map[string]bool)
	wantInproc := make(map[*pubEndpoint]bool)
	for _, p := range pubs {
		if p.Relay || useRelay {
			continue
		}
		useInproc := p.direct != nil && mode != TransportTCP && mode != TransportShm
		if useInproc {
			wantInproc[p.direct] = true
			continue
		}
		if p.Addr != "" && mode != TransportInproc {
			wantTCP[p.Addr] = true
		}
	}
	if useRelay {
		sort.Strings(relays)
		wantTCP[relays[stableSpread(s.node.name+"|"+s.topic)%uint32(len(relays))]] = true
	}

	// Publishers exist, but none is reachable over this subscription's
	// transport mode (e.g. TransportInproc with only remote publishers,
	// or TransportShm/TCP facing listener-less in-process publishers):
	// without this warning the subscription sits silently empty forever.
	if len(pubs) > 0 && len(wantTCP) == 0 && len(wantInproc) == 0 {
		if s.stats != nil {
			s.stats.TransportUnavailable.Inc()
		}
		if !s.loggedUnavailable {
			s.loggedUnavailable = true
			log.Printf("ros: subscription %q: %d publisher(s) registered but none reachable over transport mode %d; delivering nothing",
				s.topic, len(pubs), mode)
		}
	}

	// Attach new intra-process publishers.
	for ep := range wantInproc {
		if _, ok := s.inproc[ep]; ok {
			continue
		}
		if err := ep.attachInproc(s.sink); err == nil {
			s.inproc[ep] = struct{}{}
		}
	}
	// Detach vanished ones.
	for ep := range s.inproc {
		if !wantInproc[ep] {
			ep.detachInproc(s.sink)
			delete(s.inproc, ep)
		}
	}

	// Dial new TCP publishers.
	for addr := range wantTCP {
		if _, ok := s.conns[addr]; ok {
			continue
		}
		sc := newSubConn(addr)
		s.conns[addr] = sc
		s.wg.Add(1)
		go func(addr string, sc *subConn) {
			defer s.wg.Done()
			s.dialAndRun(addr, sc)
		}(addr, sc)
	}
	// Drop vanished TCP publishers.
	for addr, sc := range s.conns {
		if !wantTCP[addr] {
			sc.close()
			delete(s.conns, addr)
		}
	}
}

// stableSpread hashes a subscription identity for deterministic relay
// selection: the same subscriber always picks the same relay (no
// connection churn across reconcile passes) while different
// subscribers spread across the relay set.
func stableSpread(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key)) //nolint:errcheck // fnv never fails
	return h.Sum32()
}

// dialAndRun owns one publisher link for its whole lifetime: it dials,
// runs the frame pump, and on failure redials under the subscription's
// RetryPolicy — bounded exponential backoff with jitter — until the
// link closes (subscription closed or publisher withdrawn), the
// publisher permanently refuses the handshake, or the retry budget runs
// out (ConnGaveUp).
func (s *Subscriber) dialAndRun(addr string, sc *subConn) {
	defer func() {
		s.mu.Lock()
		if s.conns[addr] == sc {
			delete(s.conns, addr)
		}
		s.mu.Unlock()
	}()

	attempt := 0
	for {
		if sc.isClosed() || s.isClosed() {
			return
		}
		connected, permanent := s.runOnce(addr, sc)
		if connected {
			attempt = 0
		}
		if sc.isClosed() || s.isClosed() {
			return
		}
		if permanent {
			// The publisher answered the handshake with an error (type,
			// md5, or format mismatch): redialing cannot fix it.
			s.notifyState(addr, ConnGaveUp)
			return
		}
		attempt++
		if s.retry.MaxAttempts > 0 && attempt > s.retry.MaxAttempts {
			s.notifyState(addr, ConnGaveUp)
			return
		}
		if s.stats != nil {
			s.stats.Reconnects.Inc()
		}
		s.notifyState(addr, ConnRetrying)
		if !sc.sleep(s.retry.backoff(attempt)) {
			return
		}
	}
}

// runOnce performs one dial + handshake + frame-pump cycle. connected
// reports whether the handshake completed (resetting the backoff);
// permanent reports a handshake rejection that no retry can cure. The
// publisher's reply picks the pump's decoder; the subscription fixes
// its sink.
func (s *Subscriber) runOnce(addr string, sc *subConn) (connected, permanent bool) {
	conn, err := s.node.dial(addr)
	if err != nil {
		return false, false
	}
	if !sc.bind(conn) {
		conn.Close()
		return false, false
	}
	defer conn.Close()
	k := s.sink
	format := formatROS1
	if k.sfm {
		format = formatSFM
	}
	conn.SetDeadline(nowPlusHandshake())
	fields := map[string]string{
		hdrTopic:    s.topic,
		hdrType:     s.typeName,
		hdrMD5:      s.md5,
		hdrCallerID: s.node.name,
		hdrFormat:   format,
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	}
	if s.offersShm() && !sc.shmDisabled() {
		fields[hdrTransports] = wire.TransportNameShm + "," + wire.TransportNameTCP
		fields[hdrPID] = pidString()
		fields[hdrBootID] = shm.BootID()
	}
	if k.sfm && len(s.fields) > 0 && !sc.fieldsDisabled() {
		fields[hdrFields] = s.fieldsOffer()
	}
	if err := writeHeader(conn, fields); err != nil {
		return false, false
	}
	reply, err := readHeader(conn)
	if err != nil {
		return false, false
	}
	if _, bad := reply[hdrError]; bad {
		return false, true
	}
	conn.SetDeadline(zeroTime())
	p := &pump{sink: k, little: reply[hdrEndian] != endianBig}
	switch {
	case reply[hdrTransport] == wire.TransportNameShm:
		var mp *shm.Mapper
		if k.adoptsShm() {
			mp, _ = newShmReceiver(reply, s.node.shmStats())
		}
		if mp == nil {
			// The publisher selected shm but this side cannot stand it up
			// (incompatible segment layout, mapping failure, malformed
			// reply — all shapes of a protocol-revision mismatch): disable
			// shm on this link and redial; the next handshake offers TCP
			// only.
			sc.disableShm()
			if st := s.node.shmStats(); st != nil {
				st.Fallbacks.Inc()
				st.FallbackOldBuild.Inc()
			}
			return false, false
		}
		defer mp.Close()
		p.dec, p.mp, p.fr = decodeTagged, mp, newTaggedFrameReader(conn)
	case reply[hdrFieldwire] == fieldwireV1:
		p.dec, p.sc, p.fw = decodeSparse, sc, s.node.fieldwireStats()
	}
	if p.fr == nil {
		p.fr = newFrameReader(conn)
	}
	s.notifyState(addr, ConnConnected)
	p.run()
	return true, false
}

// offersShm reports whether this subscription advertises the shared-
// memory transport when dialing: the sink must be able to take shm
// streams (raw and ROS1 subscriptions stay TCP-only), the mode must
// allow it, the platform must support it, and the node must use the
// stock dialer — a custom dialer (netsim links, tunnels) means the
// connection's address says nothing about machine locality, so shm is
// never offered through one.
func (s *Subscriber) offersShm() bool {
	if !s.sink.adoptsShm() || (s.transport != TransportAuto && s.transport != TransportShm) {
		return false
	}
	return shm.Available() && !s.node.customDial
}

// Close cancels the subscription, closes connections, and joins all
// goroutines.
func (s *Subscriber) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*subConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	inproc := make([]*pubEndpoint, 0, len(s.inproc))
	for ep := range s.inproc {
		inproc = append(inproc, ep)
	}
	s.conns = make(map[string]*subConn)
	s.inproc = make(map[*pubEndpoint]struct{})
	s.mu.Unlock()

	if s.cancelWatch != nil {
		s.cancelWatch()
	}
	for _, ep := range inproc {
		ep.detachInproc(s.sink)
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	if s.queue != nil {
		s.queue.close()
	}
	s.node.unregisterSub(s)
}

// subConn tracks one outbound link so Close can interrupt a blocked
// read or a backoff sleep. Across reconnect attempts the same subConn
// is rebound to each new connection.
type subConn struct {
	mu       sync.Mutex
	addr     string
	conn     net.Conn
	closed   bool
	noShm    bool // link-local shm opt-out after a failed shm setup
	noFields bool // link-local field-mask opt-out after decode failures
	done     chan struct{}
}

func newSubConn(addr string) *subConn {
	return &subConn{addr: addr, done: make(chan struct{})}
}

func (c *subConn) bind(conn net.Conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.conn = conn
	return true
}

func (c *subConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// disableShm stops this link from offering shm on future redials.
func (c *subConn) disableShm() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noShm = true
}

func (c *subConn) shmDisabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noShm
}

// disableFields stops this link from offering a field mask on future
// redials (after persistent sparse-decode failure).
func (c *subConn) disableFields() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noFields = true
}

func (c *subConn) fieldsDisabled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.noFields
}

// sleep waits for d or until the link closes; it reports false when the
// link closed (abandon the retry loop).
func (c *subConn) sleep(d time.Duration) bool {
	if d <= 0 {
		return !c.isClosed()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.done:
		return false
	case <-t.C:
		return true
	}
}

func (c *subConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	close(c.done)
	if c.conn != nil {
		c.conn.Close()
	}
}
