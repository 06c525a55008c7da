package shm

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"rossf/internal/obs"
)

// Control file layout (`<prefix>.ctl`): the publisher's peer lease
// table, mapped by every shm subscriber of this process.
//
//	offset 0        64-byte header
//	  +0  u32  magic "RSHC"
//	  +4  u32  version
//	  +8  u32  publisher pid
//	  +16 u64  creation time, unix nanos
//	offset 64       MaxPeers × 64-byte peer entries
//	  +0  u32  state     — atomic: free / active / draining
//	  +4  u32  subscriber pid
//	  +8  i64  heartbeat — atomic unix nanos, stored by the subscriber
//	  +16 u32  gen       — atomic lease generation, bumped by AcquirePeer
//
// A subscriber refreshes its heartbeat for as long as it may still hold
// slot references, and stores the hbDrained sentinel once the last one
// is released. The reaper frees an entry — clearing the peer's owner
// bit from every slot, releasing the reference iff the bit was still
// set — when it sees the sentinel, or when the heartbeat is older than
// the lease timeout AND the subscriber is provably gone: for an ACTIVE
// peer a stale heartbeat alone may just mean a stalled process
// (SIGSTOP, swap storm, debugger), so the pid is probed first; a
// DRAINING peer already lost its connection and keeps heartbeating
// until drained, so age alone suffices there. The lease generation
// closes the remaining ABA: every lease of a peer id gets a fresh gen,
// Share/Unshare and the mapper's heartbeat/Resolve/release all validate
// it, so a reaped-and-reused peer id rejects stale writers instead of
// corrupting the new lease's reference counts.
type peerSlot struct {
	state     atomic.Uint32
	pid       uint32
	heartbeat atomic.Int64
	gen       atomic.Uint32
	_         [peerEntry - 20]byte
}

func ctlSize() int { return alignUp(hdrBytes+MaxPeers*peerEntry, pageSize) }

func peerAt(ctl []byte, p int) *peerSlot {
	return (*peerSlot)(unsafe.Pointer(&ctl[hdrBytes+p*peerEntry]))
}

func segPath(prefix string, id uint64) string { return fmt.Sprintf("%s-seg%d", prefix, id) }
func ctlPath(prefix string) string            { return prefix + ".ctl" }

// DefaultLeaseTimeout is how long a silent subscriber keeps its slot
// references before the publisher reclaims them.
const DefaultLeaseTimeout = 2 * time.Second

// Options configures a Store.
type Options struct {
	// Dir overrides the segment directory (default Dir()).
	Dir string
	// LeaseTimeout overrides DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// Stats receives transport instruments (default: none).
	Stats *obs.ShmStats
}

// Store is the publisher side of the transport: it owns the segment
// files, implements core.BackingStore (and core.ArenaGrower, for
// in-place cross-class resizes) so message allocations land in shared
// slots, tracks per-subscriber leases, and reaps references abandoned
// by crashed subscribers. All methods are safe for concurrent use.
//
// Entries of segs may be nil: a trimmed large-object segment, or a
// segment already torn down during a deferred Close, leaves a tombstone
// so handle and descriptor segment ids stay stable.
type Store struct {
	mu      sync.Mutex
	prefix  string
	ctl     []byte
	segs    []*segment
	lease   time.Duration
	stats   *obs.ShmStats
	closed  bool
	stop    chan struct{}
	done    chan struct{}
	td      chan struct{} // closed when the final teardown has run
	shareSq uint64        // descriptor sends, for tests
}

// NewStore creates a segment store under opts.Dir and starts its lease
// reaper. The caller must Close it once every store-backed message has
// been released; segments still pinned by live subscriber leases at
// Close time are torn down later, when their last lease drains (see
// Close and TeardownDone).
func NewStore(opts Options) (*Store, error) {
	if !mmapSupported {
		return nil, ErrUnavailable
	}
	dir := opts.Dir
	if dir == "" {
		if dir = Dir(); dir == "" {
			return nil, ErrUnavailable
		}
	}
	lease := opts.LeaseTimeout
	if lease <= 0 {
		lease = DefaultLeaseTimeout
	}
	stats := opts.Stats
	if stats == nil {
		stats = new(obs.ShmStats)
	}
	s := &Store{
		lease: lease,
		stats: stats,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		td:    make(chan struct{}),
	}
	// The O_EXCL create of the control file claims the prefix.
	for attempt := 0; ; attempt++ {
		prefix := fmt.Sprintf("%s%crossf-%d-%d", dir, os.PathSeparator, os.Getpid(), attempt)
		f, err := os.OpenFile(ctlPath(prefix), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
		if os.IsExist(err) && attempt < 1024 {
			continue
		}
		if err != nil {
			return nil, err
		}
		mapErr := f.Truncate(int64(ctlSize()))
		if mapErr == nil {
			s.ctl, mapErr = mapFile(f, ctlSize())
		}
		f.Close()
		if s.ctl == nil {
			os.Remove(ctlPath(prefix))
			return nil, fmt.Errorf("shm: mapping control segment: %w", mapErr)
		}
		s.prefix = prefix
		break
	}
	binary.LittleEndian.PutUint32(s.ctl[0:], ctlMagic)
	binary.LittleEndian.PutUint32(s.ctl[4:], shmVer)
	binary.LittleEndian.PutUint32(s.ctl[8:], uint32(os.Getpid()))
	binary.LittleEndian.PutUint64(s.ctl[16:], uint64(time.Now().UnixNano()))
	go s.reapLoop()
	return s, nil
}

// Prefix returns the path prefix subscribers use to locate this store's
// segment and control files (sent in the connection handshake).
func (s *Store) Prefix() string { return s.prefix }

// LeaseTimeout returns the store's lease timeout (sent in the
// handshake so subscribers heartbeat well inside it).
func (s *Store) LeaseTimeout() time.Duration { return s.lease }

// handle packs a segment index and slot index.
func handleFor(segIdx, slot int) uint64 { return uint64(segIdx)<<32 | uint64(uint32(slot)) }

// lookup resolves a handle. Caller holds s.mu.
func (s *Store) lookup(handle uint64) (*segment, int, bool) {
	segIdx, slot := int(handle>>32), int(uint32(handle))
	if segIdx >= len(s.segs) {
		return nil, 0, false
	}
	seg := s.segs[segIdx]
	if seg == nil || slot >= seg.slotCount {
		return nil, 0, false
	}
	return seg, slot, true
}

// Acquire implements core.BackingStore: it claims a free slot (reusing
// one whose references have all dropped, else growing a new segment)
// and returns its page-aligned data window. Capacities above the
// largest pooled class get a dedicated single-slot large-object
// segment, so images and point clouds ride the descriptor path like
// everything else. The only declines left — capacity above
// MaxMessageBytes, store closed, segment creation failure — make the
// manager fall back to its process-local heap, which at the transport
// level means the message travels inline over TCP framing.
func (s *Store) Acquire(capacity int) ([]byte, uint64, bool) {
	if capacity > maxSlotSize {
		return s.acquireLarge(capacity)
	}
	slotSize := slotSizeFor(capacity)
	if slotSize == 0 {
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, false
	}
	for segIdx, seg := range s.segs {
		if seg == nil || seg.large || seg.slotSize != slotSize {
			continue
		}
		for i := 0; i < seg.slotCount; i++ {
			st := seg.slot(i)
			// owner==0 then refs==0 is a stable "fully released" state:
			// references only reach zero after the last owner bit is
			// cleared, and no new references appear without this lock.
			if st.owner.Load() == 0 && st.refs.Load() == 0 {
				s.claimLocked(seg, i, slotSize)
				return seg.data(i), handleFor(segIdx, i), true
			}
		}
	}
	slotCount := targetSegBytes / slotSize
	if slotCount < minSlots {
		slotCount = minSlots
	}
	if slotCount > maxSlots {
		slotCount = maxSlots
	}
	id := uint64(len(s.segs))
	seg, err := createSegment(segPath(s.prefix, id), id, slotSize, slotCount,
		strideFor(slotSize), time.Now().UnixNano())
	if err != nil {
		return nil, 0, false
	}
	s.segs = append(s.segs, seg)
	s.stats.SegmentsMapped.Add(1)
	s.stats.BytesShared.Add(int64(seg.size()))
	s.claimLocked(seg, 0, slotSize)
	return seg.data(0), handleFor(int(id), 0), true
}

// acquireLarge serves a capacity above the pooled classes from a
// dedicated single-slot segment: reuse the tightest idle large segment
// whose stride fits, else create one whose stride reserves doubling
// headroom over the rounded capacity (sparse, so the reservation is
// free until grown into).
func (s *Store) acquireLarge(capacity int) ([]byte, uint64, bool) {
	if capacity > maxLargeBytes {
		return nil, 0, false
	}
	grant := alignUp(capacity, pageSize)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, false
	}
	best := -1
	for segIdx, seg := range s.segs {
		if seg == nil || !seg.large || seg.stride < grant {
			continue
		}
		st := seg.slot(0)
		if st.owner.Load() != 0 || st.refs.Load() != 0 {
			continue
		}
		if best < 0 || seg.stride < s.segs[best].stride {
			best = segIdx
		}
	}
	if best >= 0 {
		seg := s.segs[best]
		s.claimLocked(seg, 0, grant)
		return seg.dataSpan(0, grant), handleFor(best, 0), true
	}
	stride := pageSize
	for stride < grant {
		stride <<= 1
	}
	if stride <= maxLargeBytes/2 {
		stride <<= 1
	}
	id := uint64(len(s.segs))
	seg, err := createSegment(segPath(s.prefix, id), id, grant, 1, stride, time.Now().UnixNano())
	if err != nil {
		return nil, 0, false
	}
	s.segs = append(s.segs, seg)
	s.stats.SegmentsMapped.Add(1)
	s.stats.BytesShared.Add(int64(seg.size()))
	s.claimLocked(seg, 0, grant)
	return seg.dataSpan(0, grant), handleFor(int(id), 0), true
}

// claimLocked initializes a slot for a new message: next generation
// (invalidating any stale descriptor), publisher baseline reference, no
// peer owners, and a granted window of grant bytes. Pages the previous
// occupant grew beyond the new grant are punched back to the OS so
// sparse stride headroom does not accumulate physically.
func (s *Store) claimLocked(seg *segment, slot, grant int) {
	if grant < seg.grown[slot] {
		seg.punchSlack(slot, grant)
	} else {
		seg.grown[slot] = grant
	}
	st := seg.slot(slot)
	st.gen.Add(1)
	st.owner.Store(0)
	st.refs.Store(1)
	seg.setUsed(slot, 0)
}

// GrowArena implements core.ArenaGrower: extend handle's granted data
// window in place, within the slot's stride reservation. The returned
// slice starts at the same address as the original Acquire — the
// address-stability contract the core index relies on — and no syscall
// or remap is involved, because the whole strided extent is mapped (and
// the file truncated to it) at segment creation. ok=false when the
// stride is exhausted; the caller's grow then fails loudly instead of
// silently relocating.
func (s *Store) GrowArena(handle uint64, need int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	seg, slot, ok := s.lookup(handle)
	if !ok || need <= 0 || need > seg.stride {
		return nil, false
	}
	grant := seg.grown[slot]
	for grant < need {
		grant <<= 1
	}
	if grant > seg.stride {
		grant = seg.stride
	}
	if grant > seg.grown[slot] {
		seg.grown[slot] = grant
	}
	return seg.dataSpan(slot, seg.grown[slot]), true
}

// Release implements core.BackingStore: the manager destructed the
// message, dropping the publisher's baseline reference. Peers still
// reading the slot keep it pinned through their own references. A
// large-object release also trims the idle large-segment cache.
func (s *Store) Release(handle uint64, raw []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg, slot, ok := s.lookup(handle)
	if !ok {
		return
	}
	seg.slot(slot).refs.Add(-1)
	if seg.large {
		s.trimLargeLocked()
	}
}

// trimLargeLocked unlinks idle large-object segments beyond the small
// reuse cache, oldest first. Unlink-while-mapped is safe: a subscriber
// that already mapped the file keeps its pages until its own unmap, and
// no valid descriptor can reference an idle slot (idle means no owner
// bits, hence no outstanding shares).
func (s *Store) trimLargeLocked() {
	var idle []int
	for segIdx, seg := range s.segs {
		if seg == nil || !seg.large {
			continue
		}
		st := seg.slot(0)
		if st.owner.Load() == 0 && st.refs.Load() == 0 {
			idle = append(idle, segIdx)
		}
	}
	for len(idle) > largeCacheSegs {
		idx := idle[0]
		idle = idle[1:]
		seg := s.segs[idx]
		s.stats.SegmentsMapped.Add(-1)
		s.stats.BytesShared.Add(-int64(seg.size()))
		seg.close(true)
		s.segs[idx] = nil
	}
}

// Share grants peer a reference to the message in handle's slot and
// returns the descriptor to send. gen is the lease generation returned
// by AcquirePeer: a mismatch means the lease was reaped (and the peer
// id possibly re-issued) since the caller's handshake, so no reference
// is minted. length is the payload size actually used; it may exceed
// the slot class when the message grew in place, up to the granted
// window. The caller must still hold the message (publisher baseline
// alive), which guarantees the slot cannot be recycled concurrently.
func (s *Store) Share(handle uint64, peer int, gen uint32, length int) (Descriptor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Descriptor{}, ErrClosed
	}
	seg, slot, ok := s.lookup(handle)
	if !ok || peer < 0 || peer >= MaxPeers {
		return Descriptor{}, fmt.Errorf("shm: share: bad handle %#x / peer %d", handle, peer)
	}
	if e := peerAt(s.ctl, peer); e.state.Load() != peerActive || e.gen.Load() != gen {
		return Descriptor{}, fmt.Errorf("shm: share: peer %d lease lost", peer)
	}
	if length < 0 || length > seg.grown[slot] {
		return Descriptor{}, fmt.Errorf("shm: share: length %d exceeds granted window %d", length, seg.grown[slot])
	}
	st := seg.slot(slot)
	bit := uint32(1) << uint(peer)
	if st.owner.Load()&bit == 0 {
		st.refs.Add(1)
		st.owner.Or(bit)
	}
	seg.setUsed(slot, length)
	s.shareSq++
	s.stats.DescriptorSends.Inc()
	return Descriptor{SegID: seg.id, Gen: st.gen.Load(), Slot: uint32(slot), Length: uint32(length)}, nil
}

// Unshare returns peer's reference on handle's slot without the
// descriptor ever reaching the subscriber — the undo path for frames
// dropped from a full send queue. gen must be the lease generation the
// reference was minted under: if the lease has been reaped since, the
// reaper already returned the reference (and the peer id may belong to
// a new subscriber), so the release is skipped.
func (s *Store) Unshare(handle uint64, peer int, gen uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seg, slot, ok := s.lookup(handle); ok && peer >= 0 && peer < MaxPeers &&
		peerAt(s.ctl, peer).gen.Load() == gen {
		releaseShared(seg.slot(slot), peer)
	}
}

// AcquirePeer leases a peer id to a subscriber with the given pid and
// returns the id plus the lease generation. The lease starts with a
// fresh heartbeat; the subscriber keeps it fresh via
// Mapper.StartHeartbeat. The generation is always nonzero (zero means
// "no validation" to mappers talking to builds without it) and changes
// on every lease of the same id, so references minted under a reaped
// lease can never be mistaken for the new occupant's.
func (s *Store) AcquirePeer(pid uint32) (int, uint32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, ErrClosed
	}
	for p := 0; p < MaxPeers; p++ {
		e := peerAt(s.ctl, p)
		if e.state.Load() == peerFree {
			gen := e.gen.Add(1)
			if gen == 0 {
				gen = e.gen.Add(1)
			}
			e.pid = pid
			e.heartbeat.Store(time.Now().UnixNano())
			e.state.Store(peerActive)
			return p, gen, nil
		}
	}
	return 0, 0, ErrNoPeerSlot
}

// RetirePeer marks a peer draining: the connection is gone, but the
// subscriber process may still be releasing references from callbacks
// in flight. The reaper collects the entry — and any references the
// subscriber never returned — once its heartbeat goes stale.
func (s *Store) RetirePeer(peer int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if peer >= 0 && peer < MaxPeers {
		e := peerAt(s.ctl, peer)
		if e.state.Load() == peerActive {
			e.state.Store(peerDraining)
		}
	}
}

// ActivePeers reports how many peer leases are held by live
// connections: granted and not yet retired. Test and debug visibility
// into the handshake's lease accounting.
func (s *Store) ActivePeers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctl == nil {
		return 0
	}
	n := 0
	for p := 0; p < MaxPeers; p++ {
		if peerAt(s.ctl, p).state.Load() == peerActive {
			n++
		}
	}
	return n
}

// reapLoop periodically reclaims peers whose heartbeat exceeded the
// lease timeout. It stops at Close; a deferred teardown continues
// reaping from the janitor instead, because draining the last lease is
// exactly what unblocks the teardown.
func (s *Store) reapLoop() {
	defer close(s.done)
	tick := time.NewTicker(s.lease / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.mu.Lock()
			if !s.closed {
				s.reapPeersLocked(time.Now().UnixNano())
			}
			s.mu.Unlock()
		}
	}
}

// reapPeersLocked frees peer entries whose lease is decidably over and
// returns every slot reference they still held. Caller holds s.mu.
func (s *Store) reapPeersLocked(now int64) {
	for p := 0; p < MaxPeers; p++ {
		e := peerAt(s.ctl, p)
		state := e.state.Load()
		if state == peerFree {
			continue
		}
		if hb := e.heartbeat.Load(); hb != hbDrained {
			if now-hb <= s.lease.Nanoseconds() {
				continue
			}
			// A stale heartbeat alone does not prove an ACTIVE subscriber
			// is gone — it may just be stalled (SIGSTOP, swap, a long GC
			// pause). Reclaiming references it still reads would recycle
			// slots under it and hand its peer id to someone else, so an
			// active peer is reaped only once its process no longer
			// exists. Draining peers have lost their connection and keep
			// heartbeating until their last release (then store the
			// drained sentinel), so age alone is decisive for them.
			if state == peerActive && pidAlive(e.pid) {
				continue
			}
		}
		for _, seg := range s.segs {
			if seg == nil {
				continue
			}
			for i := 0; i < seg.slotCount; i++ {
				releaseShared(seg.slot(i), p)
			}
		}
		e.pid = 0
		e.state.Store(peerFree)
		s.stats.LeasesReaped.Inc()
	}
}

// SlotRefs reports (refs, owner) for a handle — test and debug
// visibility into the cross-process life cycle.
func (s *Store) SlotRefs(handle uint64) (int32, uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seg, slot, ok := s.lookup(handle); ok {
		st := seg.slot(slot)
		return st.refs.Load(), st.owner.Load()
	}
	return 0, 0
}

// Idle reports whether every slot in every segment is fully released —
// the shm analogue of obs.CheckLeaks' "no live messages" baseline.
func (s *Store) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if seg == nil {
			continue
		}
		if segBusy(seg) {
			return false
		}
	}
	return true
}

// segBusy reports whether any slot still carries references or owner
// bits — i.e. the segment's memory may still be read by someone.
func segBusy(seg *segment) bool {
	for i := 0; i < seg.slotCount; i++ {
		st := seg.slot(i)
		if st.refs.Load() != 0 || st.owner.Load() != 0 {
			return true
		}
	}
	return false
}

// Shares returns the total number of successful Share calls.
func (s *Store) Shares() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shareSq
}

// TeardownDone returns a channel closed once the store's final teardown
// has run: every segment unmapped and unlinked, control file removed.
// With no busy segments at Close this happens inside Close; otherwise a
// janitor finishes the job when the last subscriber lease drains.
func (s *Store) TeardownDone() <-chan struct{} { return s.td }

// Close stops the reaper and tears the store down. Segments whose every
// slot is fully released are unmapped and unlinked immediately. A
// segment still pinned — typically a subscriber holding a resolved
// message, or a crashed subscriber whose lease has not yet expired — is
// NOT unlinked out from under its readers: a janitor keeps the mapping
// (and keeps reaping stale leases, which is what eventually drains a
// dead subscriber's references) and finishes the teardown when the last
// reference goes. TeardownDone signals that point. Store-backed
// messages owned by THIS process must have been released before Close.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	s.mu.Lock()
	done := s.teardownLocked()
	s.mu.Unlock()
	if !done {
		go s.janitor()
	}
	return nil
}

// teardownLocked unlinks every drained segment and, once none remain
// busy, unmaps the control table, removes its file, and closes td.
// Caller holds s.mu; reports whether teardown completed.
func (s *Store) teardownLocked() bool {
	busy := false
	for idx, seg := range s.segs {
		if seg == nil {
			continue
		}
		if segBusy(seg) {
			busy = true
			continue
		}
		s.stats.SegmentsMapped.Add(-1)
		s.stats.BytesShared.Add(-int64(seg.size()))
		seg.close(true)
		s.segs[idx] = nil
	}
	if busy {
		return false
	}
	s.segs = nil
	if s.ctl != nil {
		unmapFile(s.ctl)
		s.ctl = nil
		os.Remove(ctlPath(s.prefix))
	}
	close(s.td)
	return true
}

// janitor finishes a deferred teardown: keep reaping stale leases (the
// reapLoop has already exited) and retry the teardown until the last
// busy segment drains.
func (s *Store) janitor() {
	tick := time.NewTicker(s.lease / 4)
	defer tick.Stop()
	for range tick.C {
		s.mu.Lock()
		s.reapPeersLocked(time.Now().UnixNano())
		done := s.teardownLocked()
		s.mu.Unlock()
		if done {
			return
		}
	}
}
