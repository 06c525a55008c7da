package ros

import (
	"fmt"
	"net"

	"rossf/internal/core"
)

// DialDrain performs the subscriber half of the TCP handshake against a
// publisher endpoint and returns the raw connection carrying the frame
// stream: consume it with DrainFrames (the receive pump with a counting
// sink) or parse it with any frame reader of the caller's own — the
// ingress bench runs a frozen sequential wire.FrameScanner loop on it
// as the pump's baseline. It is the bench and tooling hook for standing
// up very large fan-outs: a full Subscriber costs a master watch, a
// dial goroutine, and a managed reader per connection, which at ten
// thousand subscribers measures the harness instead of the egress under
// test. DialDrain buys just the stream — no retry loop, no CRC
// verification, no dispatch — so the reader side stays a negligible
// slice of the measurement.
//
// The caller owns the connection and must Close it. Frames arrive in
// the plain untagged framing (the drain never negotiates shm).
func DialDrain(addr, topic, typeName, md5, callerID string, sfm bool) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	format := formatROS1
	if sfm {
		format = formatSFM
	}
	conn.SetDeadline(nowPlusHandshake())
	fields := map[string]string{
		hdrTopic:    topic,
		hdrType:     typeName,
		hdrMD5:      md5,
		hdrCallerID: callerID,
		hdrFormat:   format,
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	}
	if err := writeHeader(conn, fields); err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := readHeader(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if msg, bad := reply[hdrError]; bad {
		conn.Close()
		return nil, fmt.Errorf("ros: publisher rejected drain handshake: %s", msg)
	}
	conn.SetDeadline(zeroTime())
	return conn, nil
}

// DrainFrames consumes count checked frames from a drained connection
// through the receive pump with a counting sink: batched ingress and
// per-frame CRC verification exactly as a subscription, none of the
// dispatch. It is the ingress bench's measurement loop. progress
// (optional) is called with the running total after every verified
// frame, so a pacing publisher can run a credit window against it.
// Corrupt frames are dropped and do not count.
func DrainFrames(conn net.Conn, count int, progress func(delivered int)) error {
	if count <= 0 {
		return nil
	}
	delivered := 0
	k := &sink{sub: &Subscriber{}, deliver: func(image, bool) error {
		delivered++
		if progress != nil {
			progress(delivered)
		}
		if delivered == count {
			return errDrained
		}
		return nil
	}}
	p := &pump{fr: newFrameReader(conn), sink: k}
	if err := p.run(); err != errDrained {
		return err
	}
	return nil
}
