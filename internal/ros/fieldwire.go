package ros

import (
	"log"
	"net"
	"strings"
	"time"

	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/wire"
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
// Negotiation rides the existing connection header: the subscriber
// offers "fields" (comma-joined dotted paths); a publisher that can
// serve the mask answers "fieldwire: v1", one that cannot — old build,
// unknown field, variable-length tail, raw/ROS1 endpoint — omits the
// key (or names the reason in "fieldsreject") and the connection
// carries full frames, so mixed fleets always converge. Shared memory
// outranks field masking: a link that negotiated shm already moves
// descriptors, not payload bytes.
const (
	// hdrFields is the subscriber's offer: comma-joined dotted field
	// paths ("header.stamp,header.frame_id"). Publishers that predate
	// field-wire ignore the unknown key, which is the universal
	// fallback.
	hdrFields = "fields"
	// hdrFieldwire is the publisher's acceptance, valued fieldwireV1.
	hdrFieldwire = "fieldwire"
	// hdrFieldwireReject carries the publisher's reject reason (one of
	// the fieldwire.Reason* strings) for diagnosis; the connection
	// proceeds with full frames either way.
	hdrFieldwireReject = "fieldsreject"
	// fieldwireV1 names the sparse encoding of internal/fieldwire.
	fieldwireV1 = "v1"
	// fieldsFallbackAfter is how many consecutive undecodable sparse
	// payloads a masked link tolerates before it redials without the
	// fields offer — the decode-failure analogue of the shm setup
	// fallback.
	fieldsFallbackAfter = 8
)

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

// fieldsOffer renders the subscription's field list as the handshake
// offer value.
func (s *Subscriber) fieldsOffer() string { return strings.Join(s.fields, ",") }

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

// sparseBatch is the masked counterpart of egressBatch: it drains one
// masked connection's queue and ships each message as a sparse payload
// — frame header, sparse header and range table in one contiguous span,
// range bytes as zero-copy vectors straight from the arena — in one
// vectored write per batch. All storage is pre-sized from the mask's
// range bound, so the steady-state encode performs no heap allocation.
type sparseBatch struct {
	pc   *pubConn
	mask *fieldwire.Mask
	fw   *obs.FieldwireStats // nil when metrics are disabled

	items [maxBatchFrames]frameItem
	n     int
	bytes int

	// tables backs, per frame, the contiguous frame-header + sparse-
	// header + range-table span; sized so appends can never reallocate
	// under vectors already pointing into it.
	tables []byte
	// ranges is the per-frame AppendRanges scratch.
	ranges []fieldwire.Range
	// vecStore backs the write vectors: per frame one table span plus at
	// worst one vector per mask range (a full-fallback frame uses two).
	vecStore [][]byte
	vecs     net.Buffers
}

func newSparseBatch(pc *pubConn) *sparseBatch {
	maxR := pc.mask.MaxRanges()
	maxTable := wire.FrameHeaderSize + fieldwire.TableLen(maxR)
	return &sparseBatch{
		pc:       pc,
		mask:     pc.mask,
		fw:       pc.fw,
		tables:   make([]byte, 0, maxBatchFrames*maxTable),
		ranges:   make([]fieldwire.Range, 0, maxR),
		vecStore: make([][]byte, 0, maxBatchFrames*(1+maxR)),
	}
}

func (b *sparseBatch) full() bool {
	return b.n >= maxBatchFrames || b.bytes >= maxBatchBytes
}

func (b *sparseBatch) add(it frameItem) {
	it.undo = nil
	b.items[b.n] = it
	b.n++
	b.bytes += len(it.bytes())
}

// flush encodes every batched message as a sparse (or per-message
// full-fallback) payload and ships the batch as one vectored write
// under a single deadline, then releases the items. It reports whether
// the connection is still usable.
func (b *sparseBatch) flush() bool {
	if b.n == 0 {
		return true
	}
	pc := b.pc
	if pc.writeTimeout > 0 {
		pc.conn.SetWriteDeadline(time.Now().Add(pc.writeTimeout))
	}
	vecs := b.vecStore[:0]
	b.tables = b.tables[:0]
	wireBytes := 0
	for i := 0; i < b.n; i++ {
		p := b.items[i].bytes()
		rs, rerr := b.mask.AppendRanges(b.ranges[:0], p)
		sparseLen := 0
		useSparse := rerr == nil
		if useSparse {
			sparseLen = fieldwire.TableLen(len(rs))
			for _, r := range rs {
				sparseLen += r.Len
			}
			// Slicing must save bytes; a mask covering (nearly) the whole
			// message ships as a full payload, sparing the receiver the
			// range walk.
			if sparseLen >= len(p) {
				useSparse = false
			}
		}
		if !useSparse && fieldwire.HeaderSize+len(p) > maxFrameSize {
			// A message at the frame cap cannot absorb the full-fallback
			// wrapper; drop it rather than ship an undecodable frame.
			if pc.stats != nil {
				pc.stats.Drops.Inc()
			}
			continue
		}
		hdrStart := len(b.tables)
		b.tables = b.tables[:hdrStart+wire.FrameHeaderSize] // reserve the frame header
		if useSparse {
			b.tables = fieldwire.AppendTable(b.tables, len(p), rs, p)
			span := b.tables[hdrStart+wire.FrameHeaderSize:]
			// The outer frame CRC covers the sparse payload exactly as the
			// receiver will see it: table span, then each range's bytes.
			crc := wire.Checksum(span)
			for _, r := range rs {
				crc = wire.ChecksumUpdate(crc, p[r.Off:r.End()])
			}
			wire.PutFrameHeader(b.tables[hdrStart:hdrStart+wire.FrameHeaderSize], sparseLen, crc)
			vecs = append(vecs, b.tables[hdrStart:len(b.tables):len(b.tables)])
			for _, r := range rs {
				vecs = append(vecs, p[r.Off:r.End()])
			}
			wireBytes += wire.FrameHeaderSize + sparseLen
			if b.fw != nil {
				b.fw.SparseFrames.Inc()
				b.fw.BytesSaved.Add(uint64(len(p) - sparseLen))
			}
		} else {
			b.tables = fieldwire.AppendFullTable(b.tables, len(p))
			span := b.tables[hdrStart+wire.FrameHeaderSize:]
			crc := wire.ChecksumUpdate(wire.Checksum(span), p)
			wire.PutFrameHeader(b.tables[hdrStart:hdrStart+wire.FrameHeaderSize], fieldwire.HeaderSize+len(p), crc)
			vecs = append(vecs, b.tables[hdrStart:len(b.tables):len(b.tables)], p)
			wireBytes += wire.FrameHeaderSize + fieldwire.HeaderSize + len(p)
			if b.fw != nil {
				b.fw.FullFrames.Inc()
			}
		}
	}

	b.vecs = vecs
	var err error
	if len(vecs) > 0 {
		_, err = b.vecs.WriteTo(pc.conn)
	}

	if st := pc.egress; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(b.n))
		st.FramesPerWrite.Observe(int64(b.n))
		st.BytesPerWrite.Observe(int64(wireBytes))
	}
	for i := range vecs {
		vecs[i] = nil
	}
	b.vecStore = vecs[:0]
	for i := 0; i < b.n; i++ {
		b.items[i].release()
		b.items[i] = frameItem{}
	}
	b.n, b.bytes = 0, 0
	return err == nil
}

// writeLoopSparse is the write loop of a mask-negotiated connection:
// same adaptive batching discipline as writeLoop, with the sparse
// encoder in the write stage (publish-time fan-out stays untouched —
// unmasked subscribers of the same topic share the very same queue
// items).
func (pc *pubConn) writeLoopSparse() {
	b := newSparseBatch(pc)
	for {
		select {
		case <-pc.stop:
			return
		case it := <-pc.ch:
			b.add(it)
			for !b.full() {
				select {
				case more := <-pc.ch:
					b.add(more)
					continue
				default:
				}
				break
			}
			if !b.flush() {
				return
			}
		}
	}
}
