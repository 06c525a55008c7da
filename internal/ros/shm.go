package ros

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Shared-memory transport negotiation and framing.
//
// The subscriber's connection header may carry a transport offer; the
// publisher answers with its selection. Both sides are pure header
// extension — an old publisher ignores the offer, an old subscriber
// never sees a selection, and either way the connection converges on
// plain TCP framing (fuzzed in internal/wire).
//
//	subscriber → publisher: transports=shm,tcp  pid=<pid>  bootid=<id>
//	publisher → subscriber: transport=shm  shmprefix=<path>
//	                        shmpeer=<id>   shmlease=<ms>  shmgen=<gen>
//
// On a connection that negotiated shm, every frame payload is prefixed
// with a one-byte tag: tagDescriptor frames carry a 24-byte shm
// descriptor instead of the message bytes (the zero-copy path), and
// tagInline frames carry the message bytes themselves — the per-message
// fallback for messages whose arena is not in a shared slot (heap-
// backed, oversized). The frame CRC covers tag plus body.
const (
	hdrTransports = "transports" // subscriber → publisher offer
	hdrPID        = "pid"
	hdrBootID     = "bootid"
	hdrTransport  = "transport" // publisher → subscriber selection
	hdrShmPrefix  = "shmprefix"
	hdrShmPeer    = "shmpeer"
	hdrShmLeaseMS = "shmlease"
	hdrShmGen     = "shmgen"
)

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

// writeTaggedFrame sends one checked frame whose payload is tag||body,
// without materializing the concatenation: header, tag, and body go out
// as a single vectored write (the tag rides contiguously with the
// header span) and the body is written from its backing storage (the
// arena, for inline SFM messages).
func writeTaggedFrame(conn net.Conn, tag byte, body []byte) error {
	t := [1]byte{tag}
	return wire.WriteTaggedFrame(conn, tag, body, wire.Checksum2(t[:], body))
}

// negotiateShm runs the publisher side of transport selection: shm is
// chosen only for an SFM topic, on a node with a store, for a
// subscriber that offered shm from the same boot (same machine), and
// only while a peer lease slot is free. Every other combination — and
// any failure — selects TCP. It returns the header fields to merge into
// the handshake reply and, for shm, the sender granting this
// connection's pubConn descriptor access.
func (ep *pubEndpoint) negotiateShm(req map[string]string) (map[string]string, *shmSender) {
	store := ep.node.shmStore
	shmOK := ep.sfm && store != nil && req[hdrBootID] == shm.BootID()
	if wire.NegotiateTransport(req[hdrTransports], shmOK) != wire.TransportNameShm {
		// A subscriber that offered shm against a shm-capable endpoint
		// but presented a different boot id lives on another machine (or
		// across a reboot): a by-design TCP fallback, but counted so the
		// fallback total always has an explanation.
		if ep.sfm && store != nil && req[hdrBootID] != shm.BootID() &&
			wire.OffersTransport(req[hdrTransports], wire.TransportNameShm) {
			if st := ep.node.shmStats(); st != nil {
				st.Fallbacks.Inc()
				st.FallbackRemotePeer.Inc()
			}
		}
		return map[string]string{hdrTransport: wire.TransportNameTCP}, nil
	}
	pid, _ := strconv.ParseUint(req[hdrPID], 10, 32)
	peer, gen, err := store.AcquirePeer(uint32(pid))
	if err != nil {
		// Peer table full: this subscriber runs over TCP.
		if st := ep.node.shmStats(); st != nil {
			st.Fallbacks.Inc()
			st.FallbackPeerTableFull.Inc()
		}
		return map[string]string{hdrTransport: wire.TransportNameTCP}, nil
	}
	return map[string]string{
		hdrTransport:  wire.TransportNameShm,
		hdrShmPrefix:  store.Prefix(),
		hdrShmPeer:    strconv.Itoa(peer),
		hdrShmLeaseMS: strconv.FormatInt(store.LeaseTimeout().Milliseconds(), 10),
		hdrShmGen:     strconv.FormatUint(uint64(gen), 10),
	}, &shmSender{store: store, peer: peer, gen: gen}
}

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
	// hash off the write loop.
	if !legacyEgress.Load() {
		t := [1]byte{tagDescriptor}
		it.crc, it.crcOK = wire.Checksum2(t[:], it.data), true
	}
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

// pidString is this process's pid for the handshake offer.
func pidString() string { return strconv.Itoa(os.Getpid()) }
