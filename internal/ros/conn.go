package ros

import (
	"net"

	"rossf/internal/core"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// maxFrameSize bounds message frames on plain TCP connections (64 MiB,
// the largest pooled arena class). The tight bound is what keeps
// corrupted length fields cheap on lossy links: a damaged header
// claiming more than the cap is skipped by magic-rescan over already
// buffered bytes, instead of stalling the reader on gigabytes that
// will never arrive.
const maxFrameSize = 1 << 26

// maxTaggedFrameSize bounds frames on shm-negotiated connections: one
// transport tag byte plus the shared-memory transport's message cap.
// Any message that can travel as a descriptor must also survive an
// inline trip on the same connection (a transient per-message
// fallback), so this cap must match shm.MaxMessageBytes — and these
// links are same-machine loopback, where a corrupted length field is
// not a realistic failure, so the loose bound costs nothing. Messages
// above maxFrameSize cannot ship inline on plain TCP links (remote
// peers); that cross-machine path is the TZC roadmap item.
const maxTaggedFrameSize = shm.MaxMessageBytes + 1

// writeFrame sends one checked message frame: a wire.FrameMagic header
// carrying the payload length and CRC-32C, then the payload itself, as
// a single vectored write — header and payload reach the socket in one
// syscall, and a peer reset can never land between them. The payload is
// written directly from its backing storage (an arena, for SFM
// messages) — the checksum costs one pass over the bytes but no copy,
// preserving the serialization-free property.
func writeFrame(conn net.Conn, payload []byte) error {
	return wire.WriteFrame(conn, payload, wire.Checksum(payload))
}

// frameReader consumes checked frames from a connection through
// wire.IngressReader — a pooled batch buffer drained with one syscall
// per wakeup — adding the scratch fallback for payloads too large to
// pin in the batch and the resync bookkeeping the subscription counters
// fold.
type frameReader struct {
	*wire.IngressReader
	scratch    scratchBuf // payloads the batch cannot pin (see payload)
	foldedSkip uint64     // resync bytes already folded into counters (skippedDelta)
}

func newFrameReader(conn net.Conn) *frameReader {
	return &frameReader{IngressReader: wire.NewIngressReader(conn, maxFrameSize)}
}

// newTaggedFrameReader builds the reader for an shm-negotiated
// connection, whose inline-fallback frames may be as large as the
// shared-memory message cap.
func newTaggedFrameReader(conn net.Conn) *frameReader {
	return &frameReader{IngressReader: wire.NewIngressReader(conn, maxTaggedFrameSize)}
}

// payload reads the current frame's remaining n bytes and checks them
// against crc, seeded with the checksum of the frame bytes already
// consumed (a tag; 0 when none). With mgr set they land in a fresh
// arena buffer; otherwise they are sliced in place out of the batch
// buffer when they fit, else read into the reader's scratch, and stay
// valid only until the next reader call. A damaged payload never
// reaches a caller: it comes back as wire.ErrCorruptFrame with any
// buffer discarded, and the stream stays usable.
func (fr *frameReader) payload(n int, seed, crc uint32, mgr *core.Manager) (image, error) {
	img := image{wire: n}
	var err error
	if mgr != nil {
		img.buf = mgr.GetBuffer(n)
		img.p = img.buf.Bytes()[:n]
		err = fr.ReadFull(img.p)
	} else if p, ok, perr := fr.Payload(n); ok || perr != nil {
		img.p, err = p, perr
	} else {
		img.p = fr.scratch.take(n)
		err = fr.ReadFull(img.p)
	}
	if err == nil && wire.ChecksumUpdate(seed, img.p) != crc {
		err = wire.ErrCorruptFrame
	}
	if err != nil {
		img.discard()
		return image{}, err
	}
	return img, nil
}

// skippedDelta reports the bytes discarded by resync since the previous
// call. The pump folds the delta into the subscription counter after
// every frame, so introspection sees stream damage while the connection
// is still alive — not only when its pump exits.
func (fr *frameReader) skippedDelta() uint64 {
	s := fr.SkippedBytes()
	d := s - fr.foldedSkip
	fr.foldedSkip = s
	return d
}
