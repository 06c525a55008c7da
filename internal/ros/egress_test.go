package ros

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/wire"
)

// discardConn swallows writes; used to drive the egress batch without
// a peer.
type discardConn struct{ stubConn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// captureConn records every written byte; used to inspect the exact
// byte stream a batch puts on the wire.
type captureConn struct {
	stubConn
	buf *bytes.Buffer
}

func (c captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c captureConn) SetWriteDeadline(time.Time) error { return nil }

// TestPublishSFMHashesOncePerFanout pins the single-pass checksum
// property: an SFM publish fanning out to N TCP subscribers hashes the
// arena exactly once (at publish time), and the write loop ships the
// stamped value without rehashing. A fan-out of field-masked
// connections hashes nothing at publish time: their sparse writers
// checksum their own ranges and never read a stamp.
func TestPublishSFMHashesOncePerFanout(t *testing.T) {
	const fanout = 8
	for _, masked := range []bool{false, true} {
		ep := &pubEndpoint{
			conns:  make(map[*pubConn]struct{}),
			inproc: make(map[*sink]uint64),
		}
		conns := make([]*pubConn, 0, fanout)
		for i := 0; i < fanout; i++ {
			pc := &pubConn{
				conn: discardConn{},
				ch:   make(chan frameItem, fanout),
				stop: make(chan struct{}),
			}
			if masked {
				pc.mask = &fieldwire.Mask{}
			}
			ep.conns[pc] = struct{}{}
			conns = append(conns, pc)
		}

		m, err := core.NewWithCapacity[queueMsg](1024)
		if err != nil {
			t.Fatal(err)
		}
		used, err := core.UsedSize(m)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(used)
		if masked {
			want = 0
		}

		before := wire.ChecksumBytes()
		if err := publishSFM(ep, m); err != nil {
			t.Fatal(err)
		}
		if d := wire.ChecksumBytes() - before; d != want {
			t.Fatalf("publish to %d subscribers (masked=%v) hashed %d bytes, want %d",
				fanout, masked, d, want)
		}
		if masked {
			for _, pc := range conns {
				for len(pc.ch) > 0 {
					(<-pc.ch).release()
				}
			}
			core.Release(m)
			continue
		}

		// Drain every connection's queue through the batch writer: the
		// stamped checksums mean not one more byte is hashed on the way out.
		before = wire.ChecksumBytes()
		for _, pc := range conns {
			b := newEgressBatch(pc)
			for len(pc.ch) > 0 {
				b.add(<-pc.ch)
			}
			if !b.flush() {
				t.Fatal("flush failed")
			}
			b.close()
		}
		if d := wire.ChecksumBytes() - before; d != 0 {
			t.Fatalf("write loop rehashed %d bytes despite stamped checksums", d)
		}
		core.Release(m)
	}
}

// TestBatchStreamDecodesToFrames is the batch framing property test: the
// byte stream a batch writes — coalesced runs and vectored frames
// interleaved — must decode through wire.FrameScanner into exactly the
// frames that were enqueued, in order, with valid checksums.
func TestBatchStreamDecodesToFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]int{
		{10},                     // single coalesced frame
		{100000},                 // single vectored frame
		{0, 1, 2, 3},             // tiny coalesced run, incl. empty payload
		{10, 8000, 20, 9000, 30}, // alternating small/large
		{coalesceThreshold, coalesceThreshold + 1}, // both sides of the cutoff
	}
	for c := 0; c < 4; c++ { // plus randomized batches
		sizes := make([]int, 1+rng.Intn(maxBatchFrames))
		for i := range sizes {
			sizes[i] = rng.Intn(3 * coalesceThreshold)
		}
		cases = append(cases, sizes)
	}

	for ci, sizes := range cases {
		var got bytes.Buffer
		pc := &pubConn{conn: captureConn{buf: &got}, stop: make(chan struct{})}
		b := newEgressBatch(pc)
		payloads := make([][]byte, len(sizes))
		for i, n := range sizes {
			p := make([]byte, n)
			rng.Read(p)
			payloads[i] = p
			b.add(frameItem{data: p}) // unstamped: the writer computes the CRC
		}
		if !b.flush() {
			t.Fatalf("case %d: flush failed", ci)
		}
		b.close()

		r := bytes.NewReader(got.Bytes())
		s := wire.NewFrameScanner(r, maxFrameSize)
		for i, p := range payloads {
			n, crc, err := s.Next()
			if err != nil {
				t.Fatalf("case %d frame %d: %v", ci, i, err)
			}
			if n != len(p) {
				t.Fatalf("case %d frame %d: length %d, want %d", ci, i, n, len(p))
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(r, body); err != nil {
				t.Fatalf("case %d frame %d payload: %v", ci, i, err)
			}
			if wire.Checksum(body) != crc {
				t.Fatalf("case %d frame %d: checksum mismatch", ci, i)
			}
			if !bytes.Equal(body, p) {
				t.Fatalf("case %d frame %d: payload differs", ci, i)
			}
		}
		if _, _, err := s.Next(); err != io.EOF {
			t.Fatalf("case %d: trailing bytes after last frame: %v", ci, err)
		}
		if s.SkippedBytes() != 0 {
			t.Fatalf("case %d: healthy batch stream skipped %d bytes", ci, s.SkippedBytes())
		}
	}
}

// TestBatchStreamTagged: on an shm-negotiated connection the batch
// writes tagged frames — each decoded payload must lead with the tag
// byte and checksum over tag||body, whether coalesced or vectored.
func TestBatchStreamTagged(t *testing.T) {
	var got bytes.Buffer
	pc := &pubConn{
		conn: captureConn{buf: &got},
		stop: make(chan struct{}),
		shm:  &shmSender{}, // marks the connection tagged; store is never touched
	}
	b := newEgressBatch(pc)
	bodies := [][]byte{
		bytes.Repeat([]byte{0x11}, 24),   // descriptor-sized, coalesced
		bytes.Repeat([]byte{0x22}, 8192), // vectored
		{},                               // empty inline body
	}
	tags := []byte{tagDescriptor, tagInline, 0 /* defaults to tagInline */}
	for i, body := range bodies {
		b.add(frameItem{data: body, tag: tags[i]})
	}
	if !b.flush() {
		t.Fatal("flush failed")
	}
	b.close()

	wantTags := []byte{tagDescriptor, tagInline, tagInline}
	r := bytes.NewReader(got.Bytes())
	s := wire.NewFrameScanner(r, maxFrameSize)
	for i, body := range bodies {
		n, crc, err := s.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(body)+1 {
			t.Fatalf("frame %d: wire length %d, want %d (tag+body)", i, n, len(body)+1)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if payload[0] != wantTags[i] {
			t.Fatalf("frame %d: tag %#x, want %#x", i, payload[0], wantTags[i])
		}
		if wire.Checksum(payload) != crc {
			t.Fatalf("frame %d: crc does not cover tag||body", i)
		}
		if !bytes.Equal(payload[1:], body) {
			t.Fatalf("frame %d: body differs", i)
		}
	}
}

// TestBatchCoalescingCounts checks the egress instruments: one flush of
// several queued frames is one write, and the sub-threshold frames are
// counted as coalesced.
func TestBatchCoalescingCounts(t *testing.T) {
	st := obs.NewRegistry().Egress()
	pc := &pubConn{conn: discardConn{}, stop: make(chan struct{}), egress: st}
	b := newEgressBatch(pc)
	small, large := make([]byte, 100), make([]byte, coalesceThreshold+1)
	for i := 0; i < 3; i++ {
		b.add(frameItem{data: small})
	}
	b.add(frameItem{data: large})
	if !b.flush() {
		t.Fatal("flush failed")
	}
	b.close()
	if w, f, c := st.Writes.Load(), st.Frames.Load(), st.Coalesced.Load(); w != 1 || f != 4 || c != 3 {
		t.Fatalf("writes=%d frames=%d coalesced=%d, want 1/4/3", w, f, c)
	}
	if fs := st.FramesPerWrite.Stats(); fs.Count != 1 || fs.Max != 4 {
		t.Fatalf("frames-per-write histogram = %+v, want one sample of 4", fs)
	}
}

// TestBatchedEgressZeroAllocs pins the fast-path cost contract: once a
// connection's batch state is warm, collecting queued SFM frames and
// flushing them as a vectored write allocates nothing — with the
// instruments enabled.
func TestBatchedEgressZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison")
	}
	small := bytes.Repeat([]byte{0xAB}, 1024)
	large := bytes.Repeat([]byte{0xCD}, 16*1024)
	smallCRC, largeCRC := wire.Checksum(small), wire.Checksum(large)
	pc := &pubConn{
		conn:   discardConn{},
		stop:   make(chan struct{}),
		egress: obs.NewRegistry().Egress(),
	}
	b := newEgressBatch(pc)
	defer b.close()

	measure := func() int64 {
		res := testing.Benchmark(func(bb *testing.B) {
			bb.ReportAllocs()
			for i := 0; i < bb.N; i++ {
				for j := 0; j < 6; j++ {
					b.add(frameItem{data: small, crc: smallCRC, crcOK: true})
				}
				b.add(frameItem{data: large, crc: largeCRC, crcOK: true})
				if !b.flush() {
					bb.Fatal("flush failed")
				}
			}
		})
		return res.AllocsPerOp()
	}
	// A stray GC or background goroutine can perturb a single run; take
	// the best of 3.
	allocs := measure()
	for i := 0; i < 2 && allocs > 0; i++ {
		if v := measure(); v < allocs {
			allocs = v
		}
	}
	if allocs != 0 {
		t.Fatalf("batched egress allocs/op = %d, want 0", allocs)
	}
}

// TestScratchBufDecay is the regression test for the subscriber scratch
// buffer: one huge frame must no longer pin its storage for the life of
// the connection once traffic returns to small frames.
func TestScratchBufDecay(t *testing.T) {
	var s scratchBuf
	if got := len(s.take(100)); got != 100 {
		t.Fatalf("take(100) length = %d", got)
	}
	if c := cap(s.buf); c != scratchInitCap {
		t.Fatalf("initial capacity = %d, want %d", c, scratchInitCap)
	}

	// A 1 MiB frame grows the buffer...
	s.take(1 << 20)
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("capacity after 1 MiB take = %d", c)
	}
	// ...and a long run of small frames releases it again.
	for i := 0; i < scratchShrinkAfter-1; i++ {
		s.take(256)
	}
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("capacity decayed after only %d small takes", scratchShrinkAfter-1)
	}
	s.take(256)
	if c := cap(s.buf); c != scratchInitCap {
		t.Fatalf("capacity after decay = %d, want %d", c, scratchInitCap)
	}

	// Traffic that keeps returning to large frames must keep its storage:
	// every large take resets the small-run counter.
	s.take(1 << 20)
	for i := 0; i < 4*scratchShrinkAfter; i++ {
		s.take(100)
		if i%8 == 7 {
			s.take(1 << 19) // > cap/4: still a large frame for this buffer
		}
	}
	if c := cap(s.buf); c < 1<<20 {
		t.Fatalf("alternating traffic thrashed the buffer down to %d", c)
	}

	// Decay lands on the window's peak, not the floor, when the recent
	// frames are mid-sized.
	s2 := scratchBuf{}
	s2.take(1 << 20)
	for i := 0; i < scratchShrinkAfter; i++ {
		s2.take(50_000)
	}
	if c := cap(s2.buf); c != 50_000 {
		t.Fatalf("decayed capacity = %d, want the window peak 50000", c)
	}
}

// TestHeaderSizeBoundary exercises readHeader at the exact maxHeaderSize
// edge: a header of exactly the limit parses, one byte more is
// rejected, and a length with the top bit set is rejected as oversized
// rather than wrapping negative.
func TestHeaderSizeBoundary(t *testing.T) {
	// Exactly at the limit: one field padded so the body is
	// maxHeaderSize bytes.
	fieldLen := maxHeaderSize - 4
	body := make([]byte, 0, maxHeaderSize)
	body = binary.LittleEndian.AppendUint32(body, uint32(fieldLen))
	body = append(body, "k="...)
	body = append(body, bytes.Repeat([]byte{'a'}, fieldLen-2)...)

	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	type result struct {
		fields map[string]string
		err    error
	}
	results := make(chan result, 1)
	go func() {
		f, err := readHeader(server)
		results <- result{f, err}
	}()
	var msg []byte
	msg = binary.LittleEndian.AppendUint32(msg, uint32(len(body)))
	msg = append(msg, body...)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-results:
		if res.err != nil {
			t.Fatalf("header of exactly maxHeaderSize rejected: %v", res.err)
		}
		if got := len(res.fields["k"]); got != fieldLen-2 {
			t.Fatalf("field length = %d, want %d", got, fieldLen-2)
		}
	case <-time.After(time.Second):
		t.Fatal("reader hung at the size boundary")
	}

	// One past the limit, and a top-bit-set length, are both rejected
	// before any body allocation.
	for _, size := range []uint32{maxHeaderSize + 1, 0xFFFFFFFF} {
		c2, s2 := net.Pipe()
		errs := make(chan error, 1)
		go func() {
			_, err := readHeader(s2)
			errs <- err
		}()
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], size)
		c2.Write(lenBuf[:])
		select {
		case err := <-errs:
			if err == nil {
				t.Fatalf("header size %d accepted", size)
			}
		case <-time.After(time.Second):
			t.Fatal("reader hung on oversized header")
		}
		c2.Close()
		s2.Close()
	}
}
