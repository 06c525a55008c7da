package ros

import (
	"fmt"
	"strconv"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Shared-memory transport framing. A subscriber's shm offer and the
// publisher's grant ride the connection header (handshake.go). On a
// connection that negotiated shm, every frame payload is prefixed with
// a one-byte tag: tagDescriptor frames carry a 24-byte shm descriptor
// instead of the message bytes (the zero-copy path), and tagInline
// frames carry the message bytes themselves — the per-message fallback
// for messages whose arena is not in a shared slot (heap-backed,
// oversized). The frame CRC covers tag plus body.
const (
	tagInline     byte = 0x01
	tagDescriptor byte = 0x02
)

// shmSender is a pubConn's grant to publish into shared memory: the
// node's store plus the peer lease (id and generation) the subscriber
// holds.
type shmSender struct {
	store *shm.Store
	peer  int
	gen   uint32
}

// shmStats returns the node's shared-memory instruments, or nil when
// metrics are disabled. Callers must nil-check: the struct pointer
// itself (unlike the Counter/Gauge methods) is not nil-safe.
func (n *Node) shmStats() *obs.ShmStats { return n.metrics.Shm() }

// shmOutcome classifies one attempt to ship a message as a descriptor,
// so the publish path can count (and warn about) the right fallback
// reason instead of folding every miss into one number.
type shmOutcome int

const (
	// shmShared: the descriptor item was built; publish it.
	shmShared shmOutcome = iota
	// shmNoSlot: the arena is not in this connection's store and
	// publish-time promotion could not place a copy either (message
	// above the transport cap, or the store declined).
	shmNoSlot
	// shmLeaseLost: the slot was ready but the subscriber's lease raced
	// away under Share — a transient, not a classified reason.
	shmLeaseLost
)

// shmItemFor builds a descriptor queue item for message m on c's shm
// grant. A message whose arena already lives in this connection's store
// ships as-is; a heap-backed one is PROMOTED — copied once into a
// shared slot cached on the message record — so a republisher converges
// to zero fallbacks instead of shipping an inline copy forever.
// promoted reports that this call paid the copy (the caller's
// Promotions counter); outcomes other than shmShared mean the message
// must go inline.
func shmItemFor[T any](c *pubConn, m *T) (it frameItem, promoted bool, outcome shmOutcome) {
	h, used, promoted, ok := core.PromoteShared(m, c.shm.store)
	if !ok {
		return frameItem{}, false, shmNoSlot
	}
	d, err := c.shm.store.Share(h, c.shm.peer, c.shm.gen, used)
	if err != nil {
		return frameItem{}, promoted, shmLeaseLost
	}
	store, peer, gen := c.shm.store, c.shm.peer, c.shm.gen
	it = frameItem{
		data: d.AppendTo(nil),
		tag:  tagDescriptor,
		undo: func() { store.Unshare(h, peer, gen) },
	}
	// Descriptors are per-connection (24 bytes), so there is nothing to
	// share across the fan-out — stamping here just moves the trivial
	// hash off the send loop.
	t := [1]byte{tagDescriptor}
	it.crc, it.crcOK = wire.Checksum2(t[:], it.data), true
	return it, promoted, shmShared
}

// newShmReceiver stands up the subscriber side from the publisher's
// reply: a mapper over the publisher's segments with the heartbeat that
// keeps this peer's lease alive. Any failure here is a negotiation
// failure — the caller falls back to a TCP redial.
func newShmReceiver(reply map[string]string, stats *obs.ShmStats) (*shm.Mapper, error) {
	peer, err := strconv.Atoi(reply[hdrShmPeer])
	if err != nil {
		return nil, fmt.Errorf("%w: bad shm peer %q", ErrHandshake, reply[hdrShmPeer])
	}
	prefix := reply[hdrShmPrefix]
	if prefix == "" {
		return nil, fmt.Errorf("%w: missing shm prefix", ErrHandshake)
	}
	leaseMS, err := strconv.ParseInt(reply[hdrShmLeaseMS], 10, 64)
	if err != nil || leaseMS <= 0 {
		leaseMS = shm.DefaultLeaseTimeout.Milliseconds()
	}
	// A missing generation (publisher predating lease generations) parses
	// to 0, which disables the mapper's lease validation.
	gen64, genErr := strconv.ParseUint(reply[hdrShmGen], 10, 32)
	if genErr != nil {
		gen64 = 0
	}
	m, err := shm.NewMapper(prefix, peer, uint32(gen64), stats)
	if err != nil {
		return nil, err
	}
	// Heartbeat at a fifth of the lease: several beats fit inside one
	// timeout, so a single missed tick never loses the lease.
	interval := time.Duration(leaseMS) * time.Millisecond / 5
	if interval <= 0 {
		interval = time.Millisecond
	}
	if err := m.StartHeartbeat(interval); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}
