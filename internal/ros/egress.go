package ros

import (
	"net"
	"sync"
	"time"

	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/wire"
)

// The send loop (DESIGN.md §3.8). Every publisher write — a dedicated
// connection's and an egress shard's alike — runs through one loop,
// parameterized by a frame encoder (how the connection frames its
// messages, chosen once from its negotiated state) and a write target
// (one connection, or every member of a shard):
//
//	encoder   wire frame                            targets
//	plain     header || payload                     connection, shard
//	tagged    header || tag || payload              connection (shm)
//	sparse    header || sparse table || ranges      connection (field mask)
//
// The loop blocks on one queued item, then greedily drains whatever is
// ALREADY queued — never waiting for more — up to the caps, encodes the
// run once and ships it to the target as one vectored write per
// connection. Latency is therefore unchanged (an item that arrives
// alone goes out alone, immediately) while a backlogged queue collapses
// into one syscall per batch instead of two per frame.
//
// Frames whose payload is at or below coalesceThreshold are copied into
// a pooled contiguous scratch buffer: at that size the copy is cheaper
// than giving the kernel another iovec, and consecutive small frames
// merge into a single write vector. Larger frames (and sparse ranges)
// travel zero-copy as their own vectors, straight from the arena.
//
// All batch storage is sized once from the encoder and the caps and
// reused across batches, so the steady-state loop performs no heap
// allocation; the coalesce scratch is the one large buffer, taken from
// a pool on first use and returned when the loop exits.
const (
	// maxBatchFrames bounds how many queued frames one vectored write may
	// carry. 32 covers a fully backlogged default queue (16) twice over
	// while keeping the iovec table well under IOV_MAX.
	maxBatchFrames = 32

	// maxBatchBytes stops draining once a batch holds this much payload;
	// the frame that crosses the line still ships (a batch always accepts
	// its first item, and the budget is checked before pulling the next).
	maxBatchBytes = 256 << 10

	// coalesceThreshold is the payload size at or below which a frame's
	// bytes are copied into the batch scratch instead of travelling as
	// their own iovec.
	coalesceThreshold = 4 << 10

	// egressScratchCap sizes the pooled coalesce buffer so that appending
	// maxBatchFrames maximal coalesced frames (header + tag + payload)
	// never reallocates.
	egressScratchCap = maxBatchFrames * (coalesceThreshold + wire.FrameHeaderSize + 1)
)

// egressScratchPool holds coalesce buffers; one is borrowed per active
// send loop that has seen at least one small frame.
var egressScratchPool = sync.Pool{
	New: func() any {
		buf := make([]byte, 0, egressScratchCap)
		return &buf
	},
}

// pubCRC memoizes the checksum variants of one publish so an
// N-subscriber fan-out hashes the message bytes once, not N times. Two
// variants exist because tagged (shm-negotiated) connections frame the
// payload as tagInline||bytes and CRC-32C offers no cheap way to derive
// CRC(tag||p) from CRC(p): a publish fanning out to both connection
// kinds hashes the payload at most twice, and exactly once when the
// fan-out is uniform. The zero value is ready to use.
type pubCRC struct {
	plainCRC  uint32
	plainOK   bool
	inlineCRC uint32
	inlineOK  bool
}

// plain returns CRC(p), computing it on first call only.
func (c *pubCRC) plain(p []byte) uint32 {
	if !c.plainOK {
		c.plainCRC = wire.Checksum(p)
		c.plainOK = true
	}
	return c.plainCRC
}

// inline returns CRC(tagInline||p), computing it on first call only.
func (c *pubCRC) inline(p []byte) uint32 {
	if !c.inlineOK {
		tag := [1]byte{tagInline}
		c.inlineCRC = wire.Checksum2(tag[:], p)
		c.inlineOK = true
	}
	return c.inlineCRC
}

// frameEncoder names how a connection frames its messages — the send
// side's mirror of the pump's frameDecoder.
type frameEncoder int

const (
	encodePlain  frameEncoder = iota // header || payload
	encodeTagged                     // header || tag || payload (see shm.go)
	encodeSparse                     // header || sparse payload (see fieldwire.go)
)

// frameSpan locates one encoded frame: its first byte is
// vecs[vec][off], and frames/coalesced/wire total the frames before it,
// so a write can start at any frame of the run.
type frameSpan struct {
	vec, off                int
	frames, coalesced, wire int
}

// egressBatch is one send loop's reusable state: the queued run, its
// encoding, and the write target — pc for a dedicated connection, shard
// for a shard's members.
type egressBatch struct {
	enc        frameEncoder
	mask       *fieldwire.Mask // encodeSparse
	pc         *pubConn
	shard      *egressShard
	egress     *obs.EgressStats      // nil when metrics are disabled
	shardStats *obs.EgressShardStats // shard targets; nil when metrics are disabled
	fw         *obs.FieldwireStats   // nil when metrics are disabled

	maxFrames, maxBytes int
	items               []frameItem
	bytes               int // payload bytes queued (batch budget)

	// The encoded run: write vectors (coalesced runs merged), one span
	// per item, and the run's totals.
	vecs                    [][]byte
	spans                   []frameSpan
	frames, coalesced, wire int
	// hdrs backs frame headers (with the tag, or the sparse table);
	// sized so appends never reallocate under vectors already issued.
	hdrs   []byte
	ranges []fieldwire.Range // encodeSparse: per-frame range scratch
	// scratch is the pooled coalesce buffer, borrowed on first use and
	// returned by close.
	scratch *[]byte
	// out is what one write consumes, copied from vecs into outStore;
	// keeping it on the (heap-resident) batch stops the vector header
	// escaping per write.
	out      net.Buffers
	outStore [][]byte
	members  []*pubConn // shard targets: member snapshot
}

func newBatch(enc frameEncoder, mask *fieldwire.Mask, maxFrames, maxBytes int) *egressBatch {
	vecsPer, hdrPer := 2, wire.FrameHeaderSize+1
	b := &egressBatch{enc: enc, mask: mask, maxFrames: maxFrames, maxBytes: maxBytes}
	if enc == encodeSparse {
		maxR := mask.MaxRanges()
		vecsPer, hdrPer = max(2, 1+maxR), wire.FrameHeaderSize+fieldwire.TableLen(maxR)
		b.ranges = make([]fieldwire.Range, 0, maxR)
	}
	b.items = make([]frameItem, 0, maxFrames)
	b.spans = make([]frameSpan, 0, maxFrames)
	b.vecs = make([][]byte, 0, vecsPer*maxFrames)
	b.outStore = make([][]byte, 0, vecsPer*maxFrames)
	b.hdrs = make([]byte, 0, hdrPer*maxFrames)
	return b
}

// newEgressBatch builds a dedicated connection's batch, its encoder
// chosen from what the connection negotiated.
func newEgressBatch(pc *pubConn) *egressBatch {
	b := newBatch(pc.encoder(), pc.mask, maxBatchFrames, maxBatchBytes)
	b.pc, b.egress, b.fw = pc, pc.egress, pc.fw
	return b
}

// run is the send loop: block for one item, drain what is already
// queued up to the caps, flush. It returns when stop closes or a
// dedicated connection's write fails.
func (b *egressBatch) run(ch <-chan frameItem, stop <-chan struct{}) {
	defer b.close()
	for {
		select {
		case <-stop:
			return
		case it := <-ch:
			b.take(it)
			for !b.full() {
				select {
				case it = <-ch:
					b.take(it)
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

// take accepts one queued item. Frames join the run; a shard's control
// items flush the run first, so queue order holds on the wire.
func (b *egressBatch) take(it frameItem) {
	switch {
	case it.move != nil:
		b.flush()
		b.shard.applyMove(it.move)
	case it.only != nil:
		b.flush()
		b.shard.deliverTargeted(it, b)
	default:
		b.add(it)
	}
}

// full reports whether the batch should stop draining the queue.
func (b *egressBatch) full() bool {
	return len(b.items) >= b.maxFrames || b.bytes >= b.maxBytes
}

// add accepts one frame into the run. The write attempt is now
// imminent, so any shm undo is cleared here: once bytes may reach the
// subscriber, the peer (or its lease reaper) owns the descriptor's
// reference.
func (b *egressBatch) add(it frameItem) {
	it.undo = nil
	b.items = append(b.items, it)
	b.bytes += len(it.bytes())
}

// flush encodes the run once, writes it to the target and releases the
// items. It reports whether a dedicated connection is still usable;
// shard targets drop failed members themselves and always go on.
func (b *egressBatch) flush() bool {
	if len(b.items) == 0 {
		return true
	}
	ok := true
	if b.shard != nil {
		b.shard.flushRun(b)
	} else {
		b.encode()
		ok = b.writeTo(b.pc, 0)
	}
	b.reset()
	return ok
}

// encode renders the run once into write vectors and spans.
func (b *egressBatch) encode() {
	b.frames, b.coalesced, b.wire = 0, 0, 0
	var sc []byte
	if b.scratch != nil {
		sc = (*b.scratch)[:0]
	}
	run := -1 // offset in sc where the open coalesced run began
	for i := range b.items {
		it := &b.items[i]
		p := it.bytes()
		sp := frameSpan{vec: len(b.vecs), frames: b.frames, coalesced: b.coalesced, wire: b.wire}
		if b.enc == encodeSparse {
			b.spans = append(b.spans, sp)
			b.encodeSparse(p)
			continue
		}
		tag, crc := it.tag, it.crc
		if b.enc == encodeTagged && tag == 0 {
			tag = tagInline // latched items carry message bytes
		}
		if !it.crcOK {
			if b.enc == encodeTagged {
				t := [1]byte{tag}
				crc = wire.Checksum2(t[:], p)
			} else {
				crc = wire.Checksum(p)
			}
		}
		w := wire.FrameHeaderSize + len(p)
		if b.enc == encodeTagged {
			w++
		}
		if len(p) <= coalesceThreshold {
			if b.scratch == nil {
				b.scratch = egressScratchPool.Get().(*[]byte)
				sc = (*b.scratch)[:0]
			}
			if run < 0 {
				run = len(sc)
			}
			sp.off = len(sc) - run
			sc = b.appendHeader(sc, tag, len(p), crc)
			sc = append(sc, p...)
			b.coalesced++
		} else {
			if run >= 0 {
				b.vecs = append(b.vecs, sc[run:len(sc):len(sc)])
				run = -1
			}
			sp.vec = len(b.vecs)
			h := len(b.hdrs)
			b.hdrs = b.appendHeader(b.hdrs, tag, len(p), crc)
			b.vecs = append(b.vecs, b.hdrs[h:len(b.hdrs):len(b.hdrs)], p)
		}
		b.spans = append(b.spans, sp)
		b.frames++
		b.wire += w
	}
	if run >= 0 {
		b.vecs = append(b.vecs, sc[run:len(sc):len(sc)])
	}
}

func (b *egressBatch) appendHeader(dst []byte, tag byte, n int, crc uint32) []byte {
	if b.enc == encodeTagged {
		return wire.AppendTaggedFrameHeader(dst, tag, n, crc)
	}
	return wire.AppendFrameHeader(dst, n, crc)
}

// encodeSparse appends one message as a sparse payload — frame header,
// sparse header and range table in one hdrs span, each range's bytes a
// zero-copy vector — or, when slicing saves nothing, whole behind a
// full-fallback table.
func (b *egressBatch) encodeSparse(p []byte) {
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
		useSparse = sparseLen < len(p)
	}
	if !useSparse && fieldwire.HeaderSize+len(p) > maxFrameSize {
		// A message at the frame cap cannot absorb the full-fallback
		// wrapper; drop it rather than ship an undecodable frame.
		if b.pc.stats != nil {
			b.pc.stats.Drops.Inc()
		}
		return
	}
	h := len(b.hdrs)
	b.hdrs = b.hdrs[:h+wire.FrameHeaderSize] // reserve the frame header
	if useSparse {
		b.hdrs = fieldwire.AppendTable(b.hdrs, len(p), rs, p)
		// The frame CRC covers the sparse payload exactly as the receiver
		// will see it: table span, then each range's bytes.
		crc := wire.Checksum(b.hdrs[h+wire.FrameHeaderSize:])
		for _, r := range rs {
			crc = wire.ChecksumUpdate(crc, p[r.Off:r.End()])
		}
		wire.PutFrameHeader(b.hdrs[h:h+wire.FrameHeaderSize], sparseLen, crc)
		b.vecs = append(b.vecs, b.hdrs[h:len(b.hdrs):len(b.hdrs)])
		for _, r := range rs {
			b.vecs = append(b.vecs, p[r.Off:r.End()])
		}
		b.wire += wire.FrameHeaderSize + sparseLen
		if b.fw != nil {
			b.fw.SparseFrames.Inc()
			b.fw.BytesSaved.Add(uint64(len(p) - sparseLen))
		}
	} else {
		b.hdrs = fieldwire.AppendFullTable(b.hdrs, len(p))
		crc := wire.ChecksumUpdate(wire.Checksum(b.hdrs[h+wire.FrameHeaderSize:]), p)
		wire.PutFrameHeader(b.hdrs[h:h+wire.FrameHeaderSize], fieldwire.HeaderSize+len(p), crc)
		b.vecs = append(b.vecs, b.hdrs[h:len(b.hdrs):len(b.hdrs)], p)
		b.wire += wire.FrameHeaderSize + fieldwire.HeaderSize + len(p)
		if b.fw != nil {
			b.fw.FullFrames.Inc()
		}
	}
	b.frames++
}

// writeTo ships the encoded run from frame k on to one connection as a
// single vectored write under one deadline. It reports whether the
// connection is still usable.
func (b *egressBatch) writeTo(c *pubConn, k int) bool {
	if k >= len(b.spans) || b.frames == b.spans[k].frames {
		return true
	}
	sp := b.spans[k]
	frames, coalesced, wireBytes := b.frames-sp.frames, b.coalesced-sp.coalesced, b.wire-sp.wire
	b.out = append(b.outStore[:0], b.vecs[sp.vec][sp.off:])
	b.out = append(b.out, b.vecs[sp.vec+1:]...)
	if c.writeTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	_, err := b.out.WriteTo(c.conn)
	b.out = nil
	if st := b.shardStats; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(frames))
		st.Bytes.Add(uint64(wireBytes))
	}
	if st := b.egress; st != nil {
		st.Writes.Inc()
		st.Frames.Add(uint64(frames))
		st.Coalesced.Add(uint64(coalesced))
		st.FramesPerWrite.Observe(int64(frames))
		st.BytesPerWrite.Observe(int64(wireBytes))
	}
	return err == nil
}

// reset releases the run's items and drops payload references so a
// quiet loop doesn't pin the last run's arenas.
func (b *egressBatch) reset() {
	for i := range b.items {
		b.items[i].release()
		b.items[i] = frameItem{}
	}
	clear(b.outStore[:len(b.vecs)]) // a write's vectors are a tail of vecs
	clear(b.vecs)
	b.items, b.vecs, b.spans, b.hdrs = b.items[:0], b.vecs[:0], b.spans[:0], b.hdrs[:0]
	b.bytes = 0
}

// close returns pooled storage; the batch must be empty.
func (b *egressBatch) close() {
	if b.scratch != nil {
		egressScratchPool.Put(b.scratch)
		b.scratch = nil
	}
}
