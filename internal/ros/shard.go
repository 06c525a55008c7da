package ros

import (
	"sync"

	"rossf/internal/obs"
)

// Sharded egress fan-out (DESIGN.md §3.10).
//
// A publisher endpoint with thousands of TCP subscribers cannot afford
// one write loop per connection: every publish becomes O(subscribers)
// channel sends and goroutine wakeups before a single byte moves. The
// shard pool bounds that cost. Subscriber connections are partitioned
// across a small fixed pool of egress shards; a publish enqueues ONE
// item per shard (O(shards) wakeups), and each shard's loop encodes the
// pending run of frames once — headers, coalesced small payloads, the
// publish-time CRC — then replays the encoded vectors to every member
// connection as one vectored write each. The arena is referenced once
// per shard instead of once per subscriber, and the checksum is shared
// by all of them.
//
// Membership changes ride the same queues as data. A join targets the
// least-loaded shard and happens under the endpoint lock, atomically
// with the publish snapshot, so the latch/ordering guarantees of the
// classic path carry over. A migration between shards (rebalancing
// after departures) travels as a control item through the SOURCE
// shard's queue, which serialises it with that shard's in-flight
// deliveries; the delivery gate below makes the handoff exact.
//
// Exactly-once gate: every broadcast item carries the publish sequence,
// and every sharded connection remembers lastSeq, the newest sequence
// already written to it. A shard delivers only items with seq >
// lastSeq. Before delivering a run, the shard "claims" it by advancing
// doneSeq (under its lock) past the run's last sequence; a migration is
// admitted only while target.doneSeq <= conn.lastSeq, i.e. while the
// target cannot have delivered anything the connection has not seen and
// cannot have missed anything it still needs. A migration that arrives
// too late is simply retried by the next rebalance pass. Together the
// gate and the claim give at-most-once delivery per sequence with no
// gaps introduced by the move itself (queue-overflow drops remain
// legal, as on the classic path).
const (
	// defaultShardCount is the pool size used by auto mode and by
	// WithEgressShards(0). Shards are write loops, not CPUs: each one
	// multiplexes hundreds of sockets, so a small pool is enough to keep
	// the kernel busy while bounding per-publish wakeups.
	defaultShardCount = 8

	// autoShardThreshold is the TCP-connection count at which an
	// auto-mode endpoint brings up its shard pool; connections beyond
	// this many are served by shards while the first ones keep their
	// dedicated write loops.
	autoShardThreshold = 64

	// Shard batches run deeper than the classic per-connection caps
	// (maxBatchFrames/maxBatchBytes): one encode is amortized across
	// hundreds of member writes, so at small payloads the batch depth
	// directly sets the syscall count per subscriber. A batch only
	// grows while the queue is backlogged — light traffic still
	// flushes the moment the queue runs dry — so the deeper caps cost
	// nothing in idle latency.
	shardMaxBatchFrames = 64
	shardMaxBatchBytes  = 512 << 10
)

// shardMove asks the shard that dequeues it to hand conn over to
// another shard in the same pool.
type shardMove struct {
	c  *pubConn
	to *egressShard
}

// egressShardPool is the bounded set of shards serving one endpoint's
// sharded connections.
type egressShardPool struct {
	ep     *pubEndpoint
	shards []*egressShard
	fanout *obs.FanoutStats // nil when metrics are disabled
}

func newEgressShardPool(ep *pubEndpoint, n int) *egressShardPool {
	p := &egressShardPool{ep: ep, fanout: ep.node.metrics.Fanout()}
	for i := 0; i < n; i++ {
		s := &egressShard{
			ep:     ep,
			pool:   p,
			ch:     make(chan frameItem, shardQueueDepth(ep.queueSize)),
			stop:   make(chan struct{}),
			stats:  ep.node.metrics.EgressShard(),
			egress: ep.node.metrics.Egress(),
		}
		p.shards = append(p.shards, s)
		if p.fanout != nil {
			p.fanout.ActiveShards.Add(1)
		}
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			s.run()
		}()
	}
	return p
}

// shardQueueDepth sizes a shard's queue from the endpoint's queue_size.
// A shard drop loses one publish for every member at once, so the floor
// keeps small per-subscriber queue_size values (the default is 16) from
// turning into whole-shard losses under short bursts.
func shardQueueDepth(queueSize int) int {
	const floor = 64
	if queueSize < floor {
		return floor
	}
	return queueSize
}

// join assigns a new connection to the least-loaded shard. Caller holds
// ep.mu, which orders the join against publish snapshots: the
// connection's lastSeq starts at the current publish sequence, so it
// receives exactly the publishes that follow.
func (p *egressShardPool) join(pc *pubConn) *egressShard {
	best := p.shards[0]
	bestN := best.memberCount()
	for _, s := range p.shards[1:] {
		if n := s.memberCount(); n < bestN {
			best, bestN = s, n
		}
	}
	pc.lastSeq = p.ep.pubSeq
	best.mu.Lock()
	best.members = append(best.members, pc)
	best.mu.Unlock()
	best.noteConns(1)
	return best
}

// memberCount sums live members across shards.
func (p *egressShardPool) memberCount() int {
	n := 0
	for _, s := range p.shards {
		n += s.memberCount()
	}
	return n
}

// stopAll closes every shard's stop channel; the loops drain their
// queues and tear their members down on the way out (ep.wg tracks
// them).
func (p *egressShardPool) stopAll() {
	for _, s := range p.shards {
		close(s.stop)
	}
}

// egressShard is one writev loop multiplexing a subset of the
// endpoint's subscriber connections.
type egressShard struct {
	ep     *pubEndpoint
	pool   *egressShardPool
	ch     chan frameItem
	stop   chan struct{}
	stats  *obs.EgressShardStats // nil when metrics are disabled
	egress *obs.EgressStats      // nil when metrics are disabled

	mu      sync.Mutex
	members []*pubConn
	// doneSeq is the highest broadcast sequence this shard has claimed
	// for delivery; guarded by mu. See the exactly-once gate above.
	doneSeq uint64
}

func (s *egressShard) memberCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.members)
}

// has reports whether pc is (still) a member.
func (s *egressShard) has(pc *pubConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.members {
		if m == pc {
			return true
		}
	}
	return false
}

// noteConns moves the member gauges — this shard's and the pool's
// sharded-connection total — by delta.
func (s *egressShard) noteConns(delta int64) {
	if st := s.stats; st != nil {
		st.Conns.Add(delta)
	}
	if f := s.pool.fanout; f != nil {
		f.ShardedConns.Add(delta)
	}
}

// removeMember detaches pc if it is (still) a member, reporting whether
// it was.
func (s *egressShard) removeMember(pc *pubConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, m := range s.members {
		if m == pc {
			last := len(s.members) - 1
			s.members[i] = s.members[last]
			s.members[last] = nil
			s.members = s.members[:last]
			return true
		}
	}
	return false
}

// enqueue adds an item, dropping the oldest queued entry when full —
// the shard-level analogue of ROS queue_size drop-oldest. Callers hold
// ep.mu, which keeps per-shard sequence order intact.
func (s *egressShard) enqueue(it frameItem) {
	for {
		select {
		case s.ch <- it:
			return
		default:
		}
		select {
		case old := <-s.ch:
			s.dropQueued(old)
		default:
		}
	}
}

// dropQueued disposes of an item displaced by overflow. A dropped
// migration leaves the connection where it is (the rebalancer will ask
// again); a dropped broadcast is one publish lost for every member at
// once.
func (s *egressShard) dropQueued(old frameItem) {
	if old.move != nil {
		return
	}
	old.release()
	if old.only != nil {
		if st := s.ep.stats; st != nil {
			st.Drops.Inc()
		}
		return
	}
	if f := s.pool.fanout; f != nil {
		f.ShardDrops.Inc()
	}
	if st := s.ep.stats; st != nil {
		st.Drops.Add(uint64(s.memberCount()))
	}
}

// run is the shard's send loop (egress.go): the run is encoded once
// and written to every member.
func (s *egressShard) run() {
	defer s.shutdown()
	b := newBatch(encodePlain, nil, shardMaxBatchFrames, shardMaxBatchBytes)
	b.shard, b.egress, b.shardStats = s, s.egress, s.stats
	b.run(s.ch, s.stop)
}

// flushRun claims the pending run, encodes it once, and writes it to
// every member from the first frame the member has not seen: the whole
// run, or — for a just-migrated member whose previous shard already
// wrote a prefix — the unseen suffix. Failed members are dropped after
// the run (never mid-iteration) and trigger a rebalance check.
func (s *egressShard) flushRun(b *egressBatch) {
	last := b.items[len(b.items)-1].seq
	// Claim before delivering: once doneSeq covers the run, a migration
	// admitted by another shard can no longer race these sequences.
	s.mu.Lock()
	if last > s.doneSeq {
		s.doneSeq = last
	}
	b.members = append(b.members[:0], s.members...)
	s.mu.Unlock()
	if len(b.members) == 0 {
		return
	}
	b.encode()
	var failed []*pubConn
	for _, c := range b.members {
		k := 0
		for k < len(b.items) && b.items[k].seq <= c.lastSeq {
			k++
		}
		c.lastSeq = last
		if !b.writeTo(c, k) {
			failed = append(failed, c)
		}
	}
	clear(b.members)
	for _, c := range failed {
		s.ep.dropShardConn(s, c)
	}
	if len(failed) > 0 {
		s.ep.maybeRebalance()
	}
}

// deliverTargeted writes one frame to one member (latched delivery to a
// late joiner) as a run of one. The seq gate is bypassed and lastSeq
// untouched: the latch carries an old sequence by definition. Join-time
// enqueue order guarantees the target is still a member here unless it
// already failed — a migration for it can only sit LATER in this queue.
func (s *egressShard) deliverTargeted(it frameItem, b *egressBatch) {
	c := it.only
	if !s.has(c) {
		it.release()
		return
	}
	b.add(it)
	b.encode()
	ok := b.writeTo(c, 0)
	b.reset()
	if !ok {
		s.ep.dropShardConn(s, c)
		s.ep.maybeRebalance()
	}
}

// applyMove hands a member over to another shard, admitting the move
// only while the exactly-once gate holds (see the package comment). A
// rejected move is left for a later rebalance pass.
func (s *egressShard) applyMove(mv *shardMove) {
	c, t := mv.c, mv.to
	if t == s || !s.has(c) {
		return // already dropped or moved
	}
	t.mu.Lock()
	ok := t.doneSeq <= c.lastSeq
	if ok {
		t.members = append(t.members, c)
	}
	t.mu.Unlock()
	if !ok {
		return
	}
	s.removeMember(c)
	s.noteConns(-1)
	t.noteConns(1)
	if f := s.pool.fanout; f != nil {
		f.Rebalances.Inc()
	}
}

// shutdown drains the queue and tears down the members after the loop
// has exited (so nothing races the channel), releasing every queued
// reference.
func (s *egressShard) shutdown() {
	for {
		select {
		case it := <-s.ch:
			it.release()
			continue
		default:
		}
		break
	}
	s.mu.Lock()
	members := s.members
	s.members = nil
	s.mu.Unlock()
	for _, c := range members {
		c.teardown()
	}
	s.noteConns(-int64(len(members)))
	if f := s.pool.fanout; f != nil {
		f.ActiveShards.Add(-1)
	}
}
