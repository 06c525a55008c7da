package ros

import (
	"log"
	"strings"

	"rossf/internal/fieldwire"
	"rossf/internal/obs"
)

// Field-wire: partial transmission on the network path. A subscriber may
// declare, at subscription time, the set of message fields it actually
// reads (WithFields); the publisher then ships only the byte ranges
// those fields occupy — skeleton ranges resolved once at handshake,
// string/vector payload ranges chased per message — inside a sparse
// payload (internal/fieldwire) framed exactly like any other RSFM
// frame. The receive side materializes the sparse payload into a fresh
// arena, zero-filling every untransmitted region, so an unrequested
// field reads as a typed empty value (zero scalar, empty string/vector
// descriptor), never as garbage.
//
// Negotiation rides the connection header (handshake.go): the
// subscriber offers "fields" (comma-joined dotted paths); a publisher
// that can serve the mask answers "fieldwire: v1", one that cannot —
// old build, unknown field, variable-length tail, raw/ROS1 endpoint —
// omits the key (or names the reason in "fieldsreject") and the
// connection carries full frames, so mixed fleets always converge.
// Shared memory outranks field masking: a link that negotiated shm
// already moves descriptors, not payload bytes.

// fieldsFallbackAfter is how many consecutive undecodable sparse
// payloads a masked link tolerates before it redials without the
// fields offer — the decode-failure analogue of the shm setup fallback.
const fieldsFallbackAfter = 8

// WithFields declares the dotted field paths this subscription reads
// (e.g. "header.stamp", "header.frame_id"). On SFM topics whose
// publisher can serve the mask, only those fields' bytes travel the
// wire; every other field of the delivered message reads as its typed
// zero value. Publishers that cannot serve the mask deliver full
// frames — the subscription always sees correct data for the fields it
// asked for. Regular (serializing) topics reject the option.
func WithFields(paths ...string) SubOption {
	return func(c *subConfig) { c.fields = append([]string(nil), paths...) }
}

// fieldwireStats returns the node's field-wire counters (nil when
// metrics are disabled).
func (n *Node) fieldwireStats() *obs.FieldwireStats { return n.metrics.Fieldwire() }

// resolveFieldMask turns a subscriber's comma-joined offer into a
// resolved mask against this endpoint's type, or a typed reject error.
func (ep *pubEndpoint) resolveFieldMask(list string) (*fieldwire.Mask, error) {
	m, ok := fieldwire.MapFor(ep.typeName)
	if !ok {
		return nil, fieldwire.ErrNoMap
	}
	return m.Resolve(strings.Split(list, ","))
}

// noteMaskReject counts one rejected field mask by reason and warns
// once per endpoint: a fleet that expects masked bandwidth but falls
// back to full frames should not degrade silently.
func (ep *pubEndpoint) noteMaskReject(err error) {
	reason := fieldwire.RejectReason(err)
	if fw := ep.node.fieldwireStats(); fw != nil {
		fw.MaskRejects.Inc()
		switch reason {
		case fieldwire.ReasonNoMap:
			fw.RejectNoMap.Inc()
		case fieldwire.ReasonVarTail:
			fw.RejectVarTail.Inc()
		default:
			fw.RejectUnmappable.Inc()
		}
	}
	if !ep.maskRejectWarned.Swap(true) {
		log.Printf("ros: topic %q rejected a subscriber field mask (%s: %v); the connection falls back to full frames — see fieldwire.rejects_by_reason in /metrics or `rostopic stats`",
			ep.topic, reason, err)
	}
}
