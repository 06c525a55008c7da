package ros

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// Connection handshakes (DESIGN.md §3.7, §3.12). Every link — a topic
// subscription, a bench drain, a service call — opens with exactly one
// TCPROS-style header each way (§4.4.1). The dial side names the
// binding it wants, declares its identity and makes its capability
// offers; the accept side checks that identity and answers with its
// own plus its answers to the offers, or refuses with a lone "error"
// field. Everything on either side of that exchange is built here:
//
//	identity, both sides     md5sum callerid format endian
//	  topic dial / accept    topic type / type
//	  service dial / accept  service request_type response_type / —
//	offer (subscriber)       answer (publisher)
//	  transports pid bootid  transport=shm shmprefix shmpeer shmlease shmgen
//	                         | transport=tcp (also with no offer)
//	  fields                 fieldwire=v1 | fieldsreject=<reason> | —
//
// Offers rank in that order: a link granted shm moves descriptors, so
// it has no payload bytes left to mask and its field offer goes
// unanswered. Every answer is optional — an old peer ignores an offer,
// an old subscriber never sees an answer — so mixed fleets converge on
// plain TCP framing with full frames.
const (
	hdrTopic    = "topic"
	hdrType     = "type"
	hdrMD5      = "md5sum"
	hdrCallerID = "callerid"
	hdrFormat   = "format" // the wire regime: formatROS1 or formatSFM
	hdrEndian   = "endian" // the sender's byte order, for SFM images
	hdrError    = "error"

	hdrService = "service"
	hdrReqType = "request_type"
	hdrRspType = "response_type"

	hdrTransports = "transports" // shm offer: "shm,tcp"
	hdrPID        = "pid"
	hdrBootID     = "bootid"
	hdrTransport  = "transport" // shm answer
	hdrShmPrefix  = "shmprefix"
	hdrShmPeer    = "shmpeer"
	hdrShmLeaseMS = "shmlease"
	hdrShmGen     = "shmgen"

	// hdrFields is the field-mask offer: comma-joined dotted paths
	// ("header.stamp,header.frame_id").
	hdrFields = "fields"
	// hdrFieldwire accepts a mask, valued fieldwireV1, the sparse
	// encoding of internal/fieldwire.
	hdrFieldwire = "fieldwire"
	fieldwireV1  = "v1"
	// hdrFieldwireReject names why a mask was refused (one of the
	// fieldwire.Reason* strings); the link carries full frames.
	hdrFieldwireReject = "fieldsreject"

	formatROS1 = "ros1"
	formatSFM  = "sfm"

	endianLittle = "little"
	endianBig    = "big"
)

// maxHeaderSize bounds connection headers; real TCPROS headers are tiny.
const maxHeaderSize = 1 << 16

const handshakeTimeout = 5 * time.Second

// ErrHandshake reports a connection-header negotiation failure.
var ErrHandshake = errors.New("ros: handshake failed")

// errShmSetup ends a link whose shm grant this side could not stand up;
// the redial no longer offers shm.
var errShmSetup = errors.New("ros: shm grant could not be mapped, redialing over TCP")

// rejectedError is an accept side's refusal (an "error" reply). It
// matches ErrHandshake; unlike a transport failure, no redial cures it.
type rejectedError struct{ msg string }

func (e *rejectedError) Error() string        { return ErrHandshake.Error() + ": " + e.msg }
func (e *rejectedError) Is(target error) bool { return target == ErrHandshake }

// identity is what one end of a link declares about itself: its
// binding (a topic and type, or a service and its request and response
// types), the md5, its node name, the wire regime and byte order.
type identity struct {
	topic, typeName            string
	service, reqType, respType string
	md5, callerID              string
	sfm, little                bool
}

func formatName(sfm bool) string {
	if sfm {
		return formatSFM
	}
	return formatROS1
}

// nativeEndianName returns the endian header value for a byte order.
func nativeEndianName(little bool) string {
	if little {
		return endianLittle
	}
	return endianBig
}

// header renders the identity fields: the dial side names the binding
// it wants; a topic's accept side answers with its type, a service's
// with no binding at all.
func (id identity) header(dial bool) map[string]string {
	h := map[string]string{hdrMD5: id.md5, hdrCallerID: id.callerID,
		hdrFormat: formatName(id.sfm), hdrEndian: nativeEndianName(id.little)}
	switch {
	case id.service == "":
		h[hdrType] = id.typeName
		if dial {
			h[hdrTopic] = id.topic
		}
	case dial:
		h[hdrService], h[hdrReqType], h[hdrRspType] = id.service, id.reqType, id.respType
	}
	return h
}

// mismatch checks a dial side's request against this accept side's
// identity — binding types, md5, then format — and returns the refusal
// naming the first difference, or "" when the request matches.
func (id identity) mismatch(req map[string]string) string {
	format := formatName(id.sfm)
	if id.service != "" {
		switch {
		case req[hdrReqType] != id.reqType || req[hdrRspType] != id.respType:
			return fmt.Sprintf("service %q is %s->%s", id.service, id.reqType, id.respType)
		case req[hdrMD5] != id.md5:
			return fmt.Sprintf("md5 mismatch on service %q", id.service)
		case req[hdrFormat] != format:
			return fmt.Sprintf("format mismatch on service %q", id.service)
		}
		return ""
	}
	switch {
	case req[hdrType] != id.typeName:
		return fmt.Sprintf("topic %q is %s, subscriber wants %s", id.topic, id.typeName, req[hdrType])
	case req[hdrMD5] != id.md5:
		return fmt.Sprintf("md5 mismatch on %q: %s vs %s", id.topic, id.md5, req[hdrMD5])
	case req[hdrFormat] != format:
		return fmt.Sprintf("format mismatch on %q: publisher %s, subscriber %s", id.topic, format, req[hdrFormat])
	}
	return ""
}

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

// dialHandshake runs the dial side on conn: id's header plus offers
// out, the reply in, both under the handshake deadline. An error reply
// comes back as a *rejectedError.
func dialHandshake(conn net.Conn, id identity, offers map[string]string) (map[string]string, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	h := id.header(true)
	for k, v := range offers {
		h[k] = v
	}
	if err := writeHeader(conn, h); err != nil {
		return nil, err
	}
	reply, err := readHeader(conn)
	if err != nil {
		return nil, err
	}
	if msg, bad := reply[hdrError]; bad {
		return nil, &rejectedError{msg}
	}
	conn.SetDeadline(time.Time{})
	return reply, nil
}

// reject refuses a handshake with a lone error field and returns the
// refusal for the accept side's own caller.
func reject(conn net.Conn, msg string) error {
	writeHeader(conn, map[string]string{hdrError: msg})
	return fmt.Errorf("%w: %s", ErrHandshake, msg)
}

// writeReply sends the accept side's reply and lifts the handshake
// deadline serveSubscriber set.
func writeReply(conn net.Conn, reply map[string]string) error {
	if err := writeHeader(conn, reply); err != nil {
		return err
	}
	return conn.SetDeadline(time.Time{})
}

// answerOffers answers a subscriber's capability offers in rank order,
// adding the answers to reply. Shm comes first: it is granted only by
// an endpoint that mints descriptors (a typed SFM publisher; raw ones
// ship frames), on a node with a store, to a same-boot subscriber,
// while a peer lease slot is free — a different boot id or a full peer
// table is a counted decline. A field mask comes next, for SFM topics
// on links without a grant: resolved, or refused with a counted reason.
// The return is what the link negotiated — at most one of the two.
func (ep *pubEndpoint) answerOffers(req, reply map[string]string) (*shmSender, *fieldwire.Mask) {
	reply[hdrTransport] = wire.TransportNameTCP
	store := ep.node.shmStore
	if ep.sfm && !ep.raw && store != nil && wire.OffersTransport(req[hdrTransports], wire.TransportNameShm) {
		st := ep.node.shmStats()
		if req[hdrBootID] != shm.BootID() {
			// Another machine, or across a reboot: TCP by design, but
			// counted so the fallback total always has an explanation.
			if st != nil {
				st.Fallbacks.Inc()
				st.FallbackRemotePeer.Inc()
			}
		} else {
			pid, _ := strconv.ParseUint(req[hdrPID], 10, 32)
			peer, gen, err := store.AcquirePeer(uint32(pid))
			if err == nil {
				reply[hdrTransport] = wire.TransportNameShm
				reply[hdrShmPrefix] = store.Prefix()
				reply[hdrShmPeer] = strconv.Itoa(peer)
				reply[hdrShmLeaseMS] = strconv.FormatInt(store.LeaseTimeout().Milliseconds(), 10)
				reply[hdrShmGen] = strconv.FormatUint(uint64(gen), 10)
				return &shmSender{store: store, peer: peer, gen: gen}, nil
			}
			if st != nil {
				st.Fallbacks.Inc()
				st.FallbackPeerTableFull.Inc()
			}
		}
	}
	list := req[hdrFields]
	if list == "" || !ep.sfm {
		return nil, nil
	}
	mask, err := ep.resolveFieldMask(list)
	if err != nil {
		reply[hdrFieldwireReject] = fieldwire.RejectReason(err)
		ep.noteMaskReject(err)
		return nil, nil
	}
	reply[hdrFieldwire] = fieldwireV1
	return nil, mask
}

// offerSet names capability offers; a subConn records the ones its
// link has declined.
type offerSet uint8

const (
	offerShm    offerSet = 1 << iota // after a grant this side could not map
	offerFields                      // after persistent sparse-decode failure
)

// handshake runs the subscriber side of one link: the identity plus
// the offers the link has not declined, then the publisher's answers
// mapped onto the pump — its frame reader and decoder, and for shm the
// mapper (closed by the caller). A grant this side cannot stand up
// declines shm on the link and fails with errShmSetup, so the redial
// offers TCP only.
func (s *Subscriber) handshake(conn net.Conn, sc *subConn) (*pump, error) {
	k := s.sink
	declined := sc.declinedOffers()
	offers := make(map[string]string, 4)
	if s.offersShm() && declined&offerShm == 0 {
		offers[hdrTransports] = wire.TransportNameShm + "," + wire.TransportNameTCP
		offers[hdrPID] = strconv.Itoa(os.Getpid())
		offers[hdrBootID] = shm.BootID()
	}
	if k.sfm && len(s.fields) > 0 && declined&offerFields == 0 {
		offers[hdrFields] = strings.Join(s.fields, ",")
	}
	reply, err := dialHandshake(conn, identity{topic: s.topic, typeName: s.typeName, md5: s.md5,
		callerID: s.node.name, sfm: k.sfm, little: core.NativeLittleEndian()}, offers)
	if err != nil {
		return nil, err
	}
	p := &pump{sink: k, little: reply[hdrEndian] != endianBig}
	switch {
	case reply[hdrTransport] == wire.TransportNameShm:
		if k.adoptsShm() {
			p.mp, _ = newShmReceiver(reply, s.node.shmStats())
		}
		if p.mp == nil {
			// Incompatible segment layout, mapping failure, malformed
			// reply: all shapes of a protocol-revision mismatch.
			sc.decline(offerShm)
			if st := s.node.shmStats(); st != nil {
				st.Fallbacks.Inc()
				st.FallbackOldBuild.Inc()
			}
			return nil, errShmSetup
		}
		p.dec, p.fr = decodeTagged, newTaggedFrameReader(conn)
		return p, nil
	case reply[hdrFieldwire] == fieldwireV1:
		p.dec, p.sc, p.fw = decodeSparse, sc, s.node.fieldwireStats()
		if p.fw != nil {
			p.fw.MaskedSubscriptions.Inc()
		}
	}
	p.fr = newFrameReader(conn)
	return p, nil
}
