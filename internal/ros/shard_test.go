package ros

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
)

// This file proves the sharded egress fan-out (shard.go): delivery is
// byte-for-byte identical across a thousand subscribers, shards
// rebalance under churn without duplicating or dropping frames, the
// latch and SFM paths compose with sharding, and teardown leaks
// neither goroutines nor arenas. The tests run under -race (see the
// Makefile race target).

// shardImgSF is a local SFM type for the sharded typed-path tests
// (the external test package has its own; package ros needs one too).
type shardImgSF struct {
	Seq  uint64
	Data core.Vector[uint8]
}

func (*shardImgSF) ROSMessageType() string { return "shard_test/Img" }
func (*shardImgSF) ROSMD5Sum() string      { return "5haadd00000000000000000000000000" }
func (*shardImgSF) SFMMessage()            {}

// guardGoroutines fails the test if the goroutine count has not
// returned near its baseline after all cleanups ran.
func guardGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(15 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+3 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at start, %d after teardown", base, n)
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func shardNode(t *testing.T, name string, m Master, reg *obs.Registry) *Node {
	t.Helper()
	n, err := NewNode(name, WithMaster(m), WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode(%s): %v", name, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// shardFrame builds the deterministic frame for seq: an 8-byte
// big-endian sequence number followed by size pattern bytes derived
// from it. Sizes alternate so runs mix coalesced (<=4KiB) and
// vectored (larger) encodings within one batch.
func shardFrame(seq uint64, size int) []byte {
	f := make([]byte, 8+size)
	binary.BigEndian.PutUint64(f, seq)
	for i := 0; i < size; i++ {
		f[8+i] = byte(seq) + byte(i)
	}
	return f
}

func shardFrameSize(seq uint64) int {
	if seq%4 == 3 {
		return 6000 // above coalesceThreshold: exercises the vectored span path
	}
	return 96
}

// shardRecorder collects one subscriber's delivered stream.
type shardRecorder struct {
	mu   sync.Mutex
	seqs []uint64
	err  string
}

func (r *shardRecorder) onRaw(m RawMessage) {
	seq := binary.BigEndian.Uint64(m.Frame)
	want := shardFrame(seq, shardFrameSize(seq))
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(m.Frame) != len(want) {
		if r.err == "" {
			r.err = "frame length mismatch"
		}
		return
	}
	for i := range want {
		if m.Frame[i] != want[i] {
			if r.err == "" {
				r.err = "frame byte mismatch"
			}
			return
		}
	}
	r.seqs = append(r.seqs, seq)
}

func (r *shardRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

func (r *shardRecorder) snapshot() ([]uint64, string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...), r.err
}

// checkContiguous verifies a recorded stream is strictly increasing by
// one — no duplicates, no interior gaps.
func checkContiguous(t *testing.T, who string, seqs []uint64) {
	t.Helper()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Errorf("%s: stream not contiguous at %d: %d -> %d",
				who, i, seqs[i-1], seqs[i])
			return
		}
	}
}

// TestShardedFanoutThousandByteForByte is the headline property: one
// publisher with a forced shard pool fanning out to a thousand TCP
// subscribers, every one of which must observe the identical
// sequence-numbered stream byte for byte, with all gauges returning to
// zero afterwards.
func TestShardedFanoutThousandByteForByte(t *testing.T) {
	nSubs, nMsgs := 1000, 24
	if testing.Short() {
		nSubs, nMsgs = 128, 16
	}
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	pub, err := AdvertiseRaw(pubNode, "fan/out", "shard_test/Raw", "a0"+"0011223344556677889900112233", false, true,
		WithEgressShards(4), WithQueueSize(64))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}

	recs := make([]*shardRecorder, nSubs)
	subs := make([]*Subscriber, nSubs)
	for i := range recs {
		recs[i] = &shardRecorder{}
		s, err := SubscribeRaw(subNode, "fan/out", "shard_test/Raw", "a0"+"0011223344556677889900112233", false, recs[i].onRaw)
		if err != nil {
			t.Fatalf("SubscribeRaw #%d: %v", i, err)
		}
		subs[i] = s
	}
	waitFor(t, 60*time.Second, "all subscribers connected", func() bool {
		return pub.NumSubscribers() == nSubs
	})

	ep := pub.ep
	if !ep.poolActive.Load() {
		t.Fatal("forced shard pool not active")
	}
	if got := len(ep.pool.shards); got != 4 {
		t.Fatalf("shard count = %d, want 4", got)
	}
	minN, maxN := nSubs, 0
	for _, s := range ep.pool.shards {
		n := s.memberCount()
		if n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	if maxN-minN > 1 {
		t.Errorf("join balancing off: shard member counts span [%d,%d]", minN, maxN)
	}

	// Publish with flow control: every subscriber must confirm frame i
	// before frame i+1 goes out, so queue overflow (legal QoS loss)
	// cannot occur and the byte-for-byte property is exact.
	for seq := uint64(0); seq < uint64(nMsgs); seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		want := int(seq) + 1
		waitFor(t, 30*time.Second, "fan-out round", func() bool {
			for _, r := range recs {
				if r.count() < want {
					return false
				}
			}
			return true
		})
	}

	for i, r := range recs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		if len(seqs) != nMsgs {
			t.Fatalf("subscriber %d received %d frames, want %d", i, len(seqs), nMsgs)
		}
		checkContiguous(t, "subscriber", seqs)
		if seqs[0] != 0 {
			t.Fatalf("subscriber %d started at seq %d", i, seqs[0])
		}
	}

	fanout := reg.Snapshot().Egress.Fanout
	if fanout.ActiveShards != 4 || fanout.ShardedConns != int64(nSubs) {
		t.Errorf("fanout gauges: shards=%d conns=%d, want 4/%d",
			fanout.ActiveShards, fanout.ShardedConns, nSubs)
	}
	if fanout.ShardDrops != 0 {
		t.Errorf("flow-controlled run recorded %d shard drops", fanout.ShardDrops)
	}

	for _, s := range subs {
		s.Close()
	}
	pub.Close()
	waitFor(t, 15*time.Second, "gauges to drain", func() bool {
		f := reg.Snapshot().Egress.Fanout
		return f.ActiveShards == 0 && f.ShardedConns == 0
	})
}

// TestShardRebalanceChurn drives joins, leaves, and forced shard
// migrations while a publish stream is live, then checks the
// no-duplicate / no-interior-gap property of every observed stream
// against the published sequence — the shadow log is the sequence
// numbering itself.
func TestShardRebalanceChurn(t *testing.T) {
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	const (
		nInit  = 40
		nJoin  = 12
		phaseA = 10  // flow-controlled warm-up frames
		total  = 400 // frames published at least
	)

	pub, err := AdvertiseRaw(pubNode, "churn/out", "shard_test/Raw", "b0"+"0011223344556677889900112233", false, true,
		WithEgressShards(4), WithQueueSize(256))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	ep := pub.ep

	var mu sync.Mutex // guards recs/subs growth from the churn goroutine
	recs := make([]*shardRecorder, 0, nInit+nJoin)
	subs := make([]*Subscriber, 0, nInit+nJoin)
	addSub := func() {
		r := &shardRecorder{}
		s, err := SubscribeRaw(subNode, "churn/out", "shard_test/Raw", "b0"+"0011223344556677889900112233", false, r.onRaw)
		if err != nil {
			t.Errorf("SubscribeRaw: %v", err)
			return
		}
		mu.Lock()
		recs = append(recs, r)
		subs = append(subs, s)
		mu.Unlock()
	}
	for i := 0; i < nInit; i++ {
		addSub()
	}
	waitFor(t, 30*time.Second, "initial subscribers", func() bool {
		return pub.NumSubscribers() == nInit
	})

	for seq := uint64(0); seq < phaseA; seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		waitFor(t, 10*time.Second, "warm-up round", func() bool {
			for _, r := range recs {
				if r.count() < int(seq)+1 {
					return false
				}
			}
			return true
		})
	}

	// Identify the members of the busiest shard by remote address and
	// close exactly those subscribers: a deterministic imbalance that
	// the rebalancer must repair while frames keep flowing.
	busiest := ep.pool.shards[0]
	for _, s := range ep.pool.shards[1:] {
		if s.memberCount() > busiest.memberCount() {
			busiest = s
		}
	}
	victims := make(map[string]bool)
	busiest.mu.Lock()
	for _, c := range busiest.members {
		victims[c.conn.RemoteAddr().String()] = true
	}
	busiest.mu.Unlock()

	victimRecs := make(map[*shardRecorder]bool)
	closeVictims := func() int {
		mu.Lock()
		defer mu.Unlock()
		closed := 0
		for i, s := range subs {
			s.mu.Lock()
			victim := false
			for _, c := range s.conns {
				c.mu.Lock()
				if c.conn != nil && victims[c.conn.LocalAddr().String()] {
					victim = true
				}
				c.mu.Unlock()
			}
			s.mu.Unlock()
			if victim {
				victimRecs[recs[i]] = true
				s.Close() // proper close: no reconnect, stream simply ends
				closed++
			}
		}
		return closed
	}

	// Live phase: publish continuously (paced well below the writers'
	// capacity so queue overflow stays out of the picture) while the
	// victim subscribers leave and fresh ones join. The stream runs at
	// least to total, and past it (up to twice that) until every joiner
	// has received a frame: a joiner attaching after the final publish
	// would otherwise wait for a tail that never comes. last is the final
	// sequence.
	var publishErr error
	var last uint64
	joined := make(chan struct{})
	fed := func() bool {
		select {
		case <-joined:
		default:
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		for _, r := range recs {
			if r.count() == 0 {
				return false
			}
		}
		return true
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(phaseA); seq < total || (seq < 2*total && !fed()); seq++ {
			if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
				publishErr = err
				return
			}
			last = seq
			time.Sleep(300 * time.Microsecond)
		}
	}()

	time.Sleep(5 * time.Millisecond)
	closedN := closeVictims()
	if closedN == 0 {
		t.Error("no victim subscribers matched the busiest shard's members")
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < nJoin; i++ {
		time.Sleep(time.Duration(rnd.Intn(3)+1) * time.Millisecond)
		addSub()
	}
	close(joined)
	<-done
	if publishErr != nil {
		t.Fatalf("publish during churn: %v", publishErr)
	}

	// Everyone still attached (the victims left mid-stream) must
	// observe the tail of the stream.
	mu.Lock()
	activeRecs := append([]*shardRecorder(nil), recs...)
	mu.Unlock()
	waitFor(t, 30*time.Second, "tail delivery", func() bool {
		for _, r := range activeRecs {
			if victimRecs[r] {
				continue
			}
			seqs, _ := r.snapshot()
			if len(seqs) == 0 || seqs[len(seqs)-1] != last {
				return false
			}
		}
		return true
	})

	// Force the rebalancer until the pool converges; moves ride the
	// source shards' queues while deliveries continue.
	waitFor(t, 20*time.Second, "shard balance", func() bool {
		ep.maybeRebalance()
		minN, maxN := 1<<30, 0
		for _, s := range ep.pool.shards {
			n := s.memberCount()
			if n < minN {
				minN = n
			}
			if n > maxN {
				maxN = n
			}
		}
		return maxN-minN <= 1
	})

	fanout := reg.Snapshot().Egress.Fanout
	if fanout.Rebalances == 0 {
		t.Error("rebalancer never moved a connection despite forced imbalance")
	}
	if fanout.ShardDrops != 0 {
		t.Errorf("paced churn run recorded %d shard drops", fanout.ShardDrops)
	}

	// The property: every stream — closed early, joined late, or
	// migrated between shards mid-run — is strictly contiguous.
	for i, r := range activeRecs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		checkContiguous(t, "churned subscriber", seqs)
	}

	mu.Lock()
	for _, s := range subs {
		s.Close()
	}
	mu.Unlock()
	pub.Close()
	waitFor(t, 15*time.Second, "gauges to drain", func() bool {
		f := reg.Snapshot().Egress.Fanout
		return f.ActiveShards == 0 && f.ShardedConns == 0
	})
}

// TestShardedSFMLatchLateJoiner composes sharding with the typed SFM
// path and latching: early subscribers see the live stream, a late
// joiner receives the latched arena image through the targeted shard
// delivery, and no arena leaks.
func TestShardedSFMLatchLateJoiner(t *testing.T) {
	guardGoroutines(t)
	obs.CheckLeaks(t, 10*time.Second)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	pub, err := Advertise[shardImgSF](pubNode, "sfm/latched",
		WithEgressShards(2), WithLatch())
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	type got struct {
		seq uint64
		sum uint64
	}
	mkSub := func() (*Subscriber, chan got) {
		ch := make(chan got, 16)
		s, err := Subscribe(subNode, "sfm/latched", func(img *shardImgSF) {
			var sum uint64
			for _, b := range img.Data.Slice() {
				sum += uint64(b)
			}
			ch <- got{seq: img.Seq, sum: sum}
		}, WithTransport(TransportTCP))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		return s, ch
	}

	s1, ch1 := mkSub()
	defer s1.Close()
	s2, ch2 := mkSub()
	defer s2.Close()
	waitFor(t, 10*time.Second, "early subscribers", func() bool {
		return pub.NumSubscribers() == 2
	})
	if !pub.ep.poolActive.Load() {
		t.Fatal("WithEgressShards(2) did not activate the pool")
	}

	publish := func(seq uint64, fill byte, n int) uint64 {
		img, err := core.NewWithCapacity[shardImgSF](1 << 16)
		if err != nil {
			t.Fatalf("core.NewWithCapacity: %v", err)
		}
		img.Seq = seq
		img.Data.MustResize(n)
		var sum uint64
		for i := range img.Data.Slice() {
			img.Data.Slice()[i] = fill + byte(i)
			sum += uint64(fill + byte(i))
		}
		if err := pub.Publish(img); err != nil {
			t.Fatalf("Publish: %v", err)
		}
		core.Release(img)
		return sum
	}

	wantSum := publish(1, 7, 5000)
	for i, ch := range []chan got{ch1, ch2} {
		select {
		case g := <-ch:
			if g.seq != 1 || g.sum != wantSum {
				t.Fatalf("subscriber %d got seq=%d sum=%d, want 1/%d", i, g.seq, g.sum, wantSum)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber %d: no live delivery", i)
		}
	}

	// Late joiner: must receive the latched message exactly once, then
	// the next live publish, in order.
	s3, ch3 := mkSub()
	defer s3.Close()
	select {
	case g := <-ch3:
		if g.seq != 1 || g.sum != wantSum {
			t.Fatalf("late joiner got seq=%d sum=%d, want latched 1/%d", g.seq, g.sum, wantSum)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("late joiner never received the latched message")
	}

	want2 := publish(2, 31, 100)
	for i, ch := range []chan got{ch1, ch2, ch3} {
		select {
		case g := <-ch:
			if g.seq != 2 || g.sum != want2 {
				t.Fatalf("subscriber %d got seq=%d sum=%d, want 2/%d", i, g.seq, g.sum, want2)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("subscriber %d: no second delivery", i)
		}
	}
	for i, ch := range []chan got{ch1, ch2, ch3} {
		select {
		case g := <-ch:
			t.Fatalf("subscriber %d received an extra message: seq=%d", i, g.seq)
		default:
		}
	}
}

// TestShardAutoThreshold checks auto mode: the pool appears only once
// the connection count crosses autoShardThreshold, earlier connections
// keep their dedicated write loops, and both populations receive the
// same stream.
func TestShardAutoThreshold(t *testing.T) {
	guardGoroutines(t)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	const nSubs = autoShardThreshold + 8

	pub, err := AdvertiseRaw(pubNode, "auto/out", "shard_test/Raw", "c0"+"0011223344556677889900112233", false, true)
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	defer pub.Close()

	recs := make([]*shardRecorder, nSubs)
	for i := range recs {
		recs[i] = &shardRecorder{}
		s, err := SubscribeRaw(subNode, "auto/out", "shard_test/Raw", "c0"+"0011223344556677889900112233", false, recs[i].onRaw)
		if err != nil {
			t.Fatalf("SubscribeRaw #%d: %v", i, err)
		}
		defer s.Close()
	}
	waitFor(t, 30*time.Second, "all subscribers connected", func() bool {
		return pub.NumSubscribers() == nSubs
	})

	ep := pub.ep
	if !ep.poolActive.Load() {
		t.Fatal("auto mode never activated the pool above the threshold")
	}
	ep.mu.Lock()
	classic := len(ep.conns)
	ep.mu.Unlock()
	sharded := ep.pool.memberCount()
	if classic != autoShardThreshold || sharded != nSubs-autoShardThreshold {
		t.Fatalf("split = %d classic + %d sharded, want %d + %d",
			classic, sharded, autoShardThreshold, nSubs-autoShardThreshold)
	}

	const nMsgs = 8
	for seq := uint64(0); seq < nMsgs; seq++ {
		if err := pub.PublishFrame(shardFrame(seq, shardFrameSize(seq))); err != nil {
			t.Fatalf("PublishFrame(%d): %v", seq, err)
		}
		waitFor(t, 10*time.Second, "mixed-mode round", func() bool {
			for _, r := range recs {
				if r.count() < int(seq)+1 {
					return false
				}
			}
			return true
		})
	}
	for i, r := range recs {
		seqs, errstr := r.snapshot()
		if errstr != "" {
			t.Fatalf("subscriber %d: %s", i, errstr)
		}
		if len(seqs) != nMsgs {
			t.Fatalf("subscriber %d received %d frames, want %d", i, len(seqs), nMsgs)
		}
		checkContiguous(t, "mixed-mode subscriber", seqs)
	}
}

// TestShardingDisabled pins the opt-out: WithEgressShards(-1) keeps
// every connection on the classic per-connection write loop no matter
// how the fan-out grows.
func TestShardingDisabled(t *testing.T) {
	guardGoroutines(t)
	reg := obs.NewRegistry()
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, reg)
	subNode := shardNode(t, "sub", m, reg)

	pub, err := AdvertiseRaw(pubNode, "plain/out", "shard_test/Raw", "d0"+"0011223344556677889900112233", false, true,
		WithEgressShards(-1))
	if err != nil {
		t.Fatalf("AdvertiseRaw: %v", err)
	}
	defer pub.Close()

	rec := &shardRecorder{}
	s, err := SubscribeRaw(subNode, "plain/out", "shard_test/Raw", "d0"+"0011223344556677889900112233", false, rec.onRaw)
	if err != nil {
		t.Fatalf("SubscribeRaw: %v", err)
	}
	defer s.Close()
	waitFor(t, 10*time.Second, "subscriber connected", func() bool {
		return pub.NumSubscribers() == 1
	})
	if pub.ep.poolActive.Load() {
		t.Fatal("WithEgressShards(-1) still built a pool")
	}
	if err := pub.PublishFrame(shardFrame(0, shardFrameSize(0))); err != nil {
		t.Fatalf("PublishFrame: %v", err)
	}
	waitFor(t, 10*time.Second, "delivery", func() bool { return rec.count() == 1 })
}

// TestShardedPublishWithoutMetrics: the shard pool must run on a node
// whose instruments are disabled (WithMetrics(nil)) — forced sharding
// on the first subscriber, and delivery through the pool.
func TestShardedPublishWithoutMetrics(t *testing.T) {
	m := NewLocalMaster()
	pubNode := shardNode(t, "pub", m, nil)
	subNode := shardNode(t, "sub", m, nil)
	const typeName, md5 = "shard_test/NoMetrics", "0000000000000000000000000000ffff"
	rp, err := AdvertiseRaw(pubNode, "shard/nometrics", typeName, md5, false, true, WithEgressShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	got := make(chan []byte, 4)
	sub, err := SubscribeRaw(subNode, "shard/nometrics", typeName, md5, false, func(m RawMessage) {
		got <- append([]byte(nil), m.Frame...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitFor(t, 5*time.Second, "the sharded subscriber", func() bool { return rp.NumSubscribers() == 1 })
	if err := rp.PublishFrame([]byte("sharded")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if string(f) != "sharded" {
			t.Errorf("delivered %q, want %q", f, "sharded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery through the shard pool")
	}
}
