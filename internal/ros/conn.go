package ros

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Connection-header keys, following TCPROS conventions with two
// additions: "format" selects the wire regime (ros1 or sfm) and "endian"
// carries the publisher's byte order for SFM frames (§4.4.1).
const (
	hdrTopic    = "topic"
	hdrType     = "type"
	hdrMD5      = "md5sum"
	hdrCallerID = "callerid"
	hdrFormat   = "format"
	hdrEndian   = "endian"
	hdrError    = "error"

	formatROS1 = "ros1"
	formatSFM  = "sfm"

	endianLittle = "little"
	endianBig    = "big"
)

// maxHeaderSize bounds connection headers; real TCPROS headers are tiny.
const maxHeaderSize = 1 << 16

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

// ErrHandshake reports a connection-header negotiation failure.
var ErrHandshake = errors.New("ros: handshake failed")

const handshakeTimeout = 5 * time.Second

// nowPlusHandshake returns the deadline for a handshake exchange.
func nowPlusHandshake() time.Time { return time.Now().Add(handshakeTimeout) }

// zeroTime clears a connection deadline.
func zeroTime() time.Time { return time.Time{} }

// writeHeader sends a TCPROS-style connection header: u32 total size,
// then per field u32 length + "key=value". Encoding lives in
// internal/wire so the codec is shared and fuzzable.
func writeHeader(conn net.Conn, fields map[string]string) error {
	_, err := conn.Write(wire.AppendHeader(nil, fields))
	return err
}

// readHeader receives a TCPROS-style connection header.
func readHeader(conn net.Conn) (map[string]string, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	// Compare before the int conversion: a length with the top bit set
	// must be rejected as oversized, not wrapped negative.
	size := binary.LittleEndian.Uint32(lenBuf[:])
	if size > maxHeaderSize {
		return nil, fmt.Errorf("%w: header size %d exceeds limit", ErrHandshake, size)
	}
	body := make([]byte, int(size))
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	fields, err := wire.ParseHeader(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	return fields, nil
}

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
	scratch    scratchBuf // payloads the batch cannot pin (see frame)
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

// frame returns the next n payload bytes: sliced in place out of the
// batch buffer when they fit, else read into the reader's scratch.
// Either way they are valid only until the next reader call, so callers
// consume them (verify, decode, copy) before asking for more.
func (fr *frameReader) frame(n int) ([]byte, error) {
	p, ok, err := fr.Payload(n)
	if ok || err != nil {
		return p, err
	}
	p = fr.scratch.take(n)
	return p, fr.ReadFull(p)
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

// nativeEndianName returns this process's byte order header value.
func nativeEndianName(little bool) string {
	if little {
		return endianLittle
	}
	return endianBig
}
