package ros

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
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

// tapConn records both directions of a live connection as the side
// that owns it sees them: the peer's bytes as they are read, its own as
// they are written. Writes are recorded before they reach the socket,
// so once the peer has received bytes they are always on record.
type tapConn struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// headers returns the connection header leading each direction: the
// one read from the peer and the one written to it (each nil until
// complete).
func (c *tapConn) headers() (in, out []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return leadingHeader(c.in.Bytes()), leadingHeader(c.out.Bytes())
}

// leadingHeader returns a copy of the length-prefixed connection header
// at the start of stream, or nil when it has not fully arrived.
func leadingHeader(stream []byte) []byte {
	if len(stream) < 4 {
		return nil
	}
	n := 4 + int(binary.LittleEndian.Uint32(stream))
	if len(stream) < n {
		return nil
	}
	return append([]byte(nil), stream[:n]...)
}

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

// sendCapture is the subscriber end of one publisher connection in the
// send matrix: it reads the handshake reply (when the connection has
// one), then records every stream byte. With hold set it stops after
// the first stream byte until hold closes, pinning the send loop inside
// that write so the test can queue the next run behind it.
type sendCapture struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	want  int
	first chan struct{} // closed once the first stream byte arrived
	full  chan struct{} // closed once want bytes arrived
	done  chan struct{} // closed when the connection ends
}

func captureSend(cli net.Conn, header bool, hold <-chan struct{}, want int) *sendCapture {
	c := &sendCapture{want: want, first: make(chan struct{}),
		full: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		if header {
			if _, err := readHeader(cli); err != nil {
				return
			}
		}
		b := make([]byte, 64<<10)
		if _, err := io.ReadFull(cli, b[:1]); err != nil {
			return
		}
		c.add(b[:1])
		close(c.first)
		if hold != nil {
			<-hold
		}
		for {
			n, err := cli.Read(b)
			c.add(b[:n])
			if err != nil {
				return
			}
		}
	}()
	return c
}

func (c *sendCapture) add(p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.buf.Len()
	c.buf.Write(p)
	if before < c.want && c.buf.Len() >= c.want {
		close(c.full)
	}
}

func (c *sendCapture) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

func waitClosed(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// readerConn serves a captured stream to the receive pump.
type readerConn struct {
	stubConn
	r io.Reader
}

func (c readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// pumpImages decodes a captured send stream through the receive pump
// with a recording sink and returns the delivered images. Tagged
// streams need an arena sink (and a mapper for descriptors).
func pumpImages(t *testing.T, stream []byte, dec frameDecoder, mp *shm.Mapper) [][]byte {
	t.Helper()
	var imgs [][]byte
	k := &sink{sub: &Subscriber{}, deliver: func(img image, _ bool) error {
		imgs = append(imgs, append([]byte(nil), img.p...))
		img.discard()
		return nil
	}}
	conn := readerConn{r: bytes.NewReader(stream)}
	p := &pump{fr: newFrameReader(conn), dec: dec, sink: k,
		little: core.NativeLittleEndian(), mp: mp}
	if dec == decodeTagged {
		k.mgr = core.NewManager()
		p.fr = newTaggedFrameReader(conn)
	}
	if err := p.run(); err != io.EOF {
		t.Fatalf("pump ended with %v, want EOF", err)
	}
	if n := k.sub.CorruptFrames(); n != 0 {
		t.Errorf("pump counted %d corrupt frames in a healthy send stream", n)
	}
	if n := k.sub.ResyncedBytes(); n != 0 {
		t.Errorf("pump resynced %d bytes of a healthy send stream", n)
	}
	return imgs
}

// egressCounts is the part of EgressStats the send matrix pins.
type egressCounts struct {
	Writes, Frames, Coalesced uint64
	FPWCount                  uint64
	FPWMax                    int64
	BPWMax                    int64
}

func egressCountsOf(st *obs.EgressStats) egressCounts {
	fpw, bpw := st.FramesPerWrite.Stats(), st.BytesPerWrite.Stats()
	return egressCounts{st.Writes.Load(), st.Frames.Load(), st.Coalesced.Load(),
		fpw.Count, fpw.Max, bpw.Max}
}

// sparseRef is the reference sparse encoding of payload p under mask:
// the wire frame and the image the receiver materializes from it.
func sparseRef(t *testing.T, mask *fieldwire.Mask, p []byte) (frame, image []byte, sparse bool) {
	t.Helper()
	rs, err := mask.AppendRanges(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	body := fieldwire.AppendTable(nil, len(p), rs, p)
	image = make([]byte, len(p))
	for _, r := range rs {
		body = append(body, p[r.Off:r.End()]...)
		copy(image[r.Off:r.End()], p[r.Off:r.End()])
	}
	if len(body) >= len(p) {
		body = append(fieldwire.AppendFullTable(nil, len(p)), p...)
		return pumpFrame(nil, body, false), p, false
	}
	return pumpFrame(nil, body, false), image, true
}

// TestSendMatrix is the send-side counterpart of TestReceivePumpMatrix:
// every encoder × target pair writes through net.Pipe, and the captured
// bytes must equal an independently built reference stream, decode
// through the receive pump into exactly the payloads sent, and leave
// the expected EgressStats behind.
//
// Dedicated connections (one write loop per connection) are driven
// with items queued before the loop starts, so each pair is one batch:
// plain, tagged inline, tagged descriptor, sparse. Shard targets are
// driven through a raw publisher with a one-shard pool: broadcast runs,
// a migrated member that receives only the suffix of a run, and the
// targeted latch delivery to a late joiner.
func TestSendMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}

	type dedicatedCase struct {
		name   string
		items  []frameItem
		dec    frameDecoder
		shm    *shmSender
		mask   *fieldwire.Mask
		mp     *shm.Mapper
		stream []byte   // reference wire stream
		images [][]byte // what the pump must deliver
		counts egressCounts
		sparse uint64 // field-wire sparse frames expected
		fulls  uint64 // field-wire full-fallback frames expected
	}
	var cases []dedicatedCase

	// Plain: coalesced and vectored frames, stamped and unstamped.
	{
		c := dedicatedCase{name: "plain", dec: decodePlain}
		for i, n := range []int{10, 6000, 0, 4096, 4097, 300} {
			p := payload(n)
			it := frameItem{data: p}
			if i%2 == 1 {
				it.crc, it.crcOK = wire.Checksum(p), true
			}
			c.items = append(c.items, it)
			c.stream = append(c.stream, pumpFrame(nil, p, false)...)
			c.images = append(c.images, p)
			if n <= coalesceThreshold {
				c.counts.Coalesced++
			}
		}
		cases = append(cases, c)
	}
	// Tagged inline: an explicit and a defaulted inline tag, both sizes.
	{
		c := dedicatedCase{name: "tagged-inline", dec: decodeTagged, shm: &shmSender{}}
		for i, n := range []int{64, 9000, 2000} {
			p := payload(n)
			it := frameItem{data: p}
			if i != 1 {
				it.tag = tagInline
			}
			if i == 2 {
				tag := [1]byte{tagInline}
				it.crc, it.crcOK = wire.Checksum2(tag[:], p), true
			}
			c.items = append(c.items, it)
			c.stream = append(c.stream, pumpFrame([]byte{tagInline}, p, false)...)
			c.images = append(c.images, p)
			if n <= coalesceThreshold {
				c.counts.Coalesced++
			}
		}
		cases = append(cases, c)
	}
	// Tagged descriptor: real descriptors into a shared store, resolved
	// by the pump through a mapper.
	if shm.Available() {
		store, err := shm.NewStore(shm.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		t.Cleanup(func() { store.Close() })
		mgr := core.NewManager()
		mgr.SetBackingStore(store)
		peer, gen, err := store.AcquirePeer(uint32(os.Getpid()))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.RetirePeer(peer) })
		mp, err := newShmReceiver(map[string]string{
			hdrShmPrefix:  store.Prefix(),
			hdrShmPeer:    strconv.Itoa(peer),
			hdrShmLeaseMS: strconv.FormatInt(store.LeaseTimeout().Milliseconds(), 10),
			hdrShmGen:     strconv.FormatUint(uint64(gen), 10),
		}, nil)
		if err != nil {
			t.Fatalf("mapper: %v", err)
		}
		t.Cleanup(mp.Close)
		c := dedicatedCase{name: "tagged-descriptor", dec: decodeTagged,
			shm: &shmSender{store: store, peer: peer, gen: gen}, mp: mp}
		for i := 0; i < 3; i++ {
			m, err := core.NewIn[endianMsg](mgr, 4096)
			if err != nil {
				t.Fatal(err)
			}
			m.Height, m.Width = uint32(i+1), 9
			t.Cleanup(func() { core.Release(m) })
			image, _ := core.Bytes(m)
			h, used, _, ok := core.PromoteShared(m, store)
			if !ok {
				t.Fatal("message not in a shared slot")
			}
			d, err := store.Share(h, peer, gen, used)
			if err != nil {
				t.Fatal(err)
			}
			desc := d.AppendTo(nil)
			it := frameItem{data: desc, tag: tagDescriptor}
			if i == 0 {
				tag := [1]byte{tagDescriptor}
				it.crc, it.crcOK = wire.Checksum2(tag[:], desc), true
			}
			c.items = append(c.items, it)
			c.stream = append(c.stream, pumpFrame([]byte{tagDescriptor}, desc, false)...)
			c.images = append(c.images, append([]byte(nil), image...))
			c.counts.Coalesced++
		}
		cases = append(cases, c)
	} else {
		t.Log("tagged-descriptor pair skipped: shared-memory transport unavailable")
	}
	// Sparse: a mask over the first 8 bytes; large payloads ship sparse,
	// a payload the table would not shrink ships whole.
	{
		wm := &fieldwire.Map{Type: "test_msgs/Endian", Size: 24, Fields: []fieldwire.Node{
			{ID: 1, Name: "height", Off: 0, Len: 4, Kind: fieldwire.KScalar},
			{ID: 2, Name: "width", Off: 4, Len: 4, Kind: fieldwire.KScalar},
		}}
		mask, err := wm.Resolve([]string{"height", "width"})
		if err != nil {
			t.Fatal(err)
		}
		c := dedicatedCase{name: "sparse", dec: decodeSparse, mask: mask}
		for _, n := range []int{5000, 16, 200} {
			p := payload(n)
			frame, image, sparse := sparseRef(t, mask, p)
			c.items = append(c.items, frameItem{data: p})
			c.stream = append(c.stream, frame...)
			c.images = append(c.images, image)
			if sparse {
				c.sparse++
			} else {
				c.fulls++
			}
		}
		if c.sparse == 0 || c.fulls == 0 {
			t.Fatalf("sparse pair must mix sparse (%d) and full (%d) frames", c.sparse, c.fulls)
		}
		cases = append(cases, c)
	}

	for _, c := range cases {
		t.Run("dedicated/"+c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, cli := net.Pipe()
			defer cli.Close()
			pc := &pubConn{
				conn:   srv,
				egress: reg.Egress(),
				fw:     reg.Fieldwire(),
				shm:    c.shm,
				mask:   c.mask,
				ch:     make(chan frameItem, len(c.items)),
				stop:   make(chan struct{}),
			}
			for _, it := range c.items {
				pc.ch <- it
			}
			capt := captureSend(cli, false, nil, len(c.stream))
			loopDone := make(chan struct{})
			go func() {
				defer close(loopDone)
				pc.writeLoop()
			}()
			waitClosed(t, capt.full, "the send stream")
			close(pc.stop)
			waitClosed(t, loopDone, "the write loop to exit")
			srv.Close()
			waitClosed(t, capt.done, "the capture to end")

			got := capt.bytes()
			if !bytes.Equal(got, c.stream) {
				t.Fatalf("wire stream differs from the reference encoding (%d vs %d bytes)", len(got), len(c.stream))
			}
			imgs := pumpImages(t, got, c.dec, c.mp)
			if len(imgs) != len(c.images) {
				t.Fatalf("pump delivered %d images, want %d", len(imgs), len(c.images))
			}
			for i := range imgs {
				if !bytes.Equal(imgs[i], c.images[i]) {
					t.Fatalf("image %d differs from the payload sent", i)
				}
			}
			want := c.counts
			want.Writes, want.Frames, want.FPWCount = 1, uint64(len(c.items)), 1
			want.FPWMax, want.BPWMax = int64(len(c.items)), int64(len(c.stream))
			if got := egressCountsOf(reg.Egress()); got != want {
				t.Errorf("egress counts = %+v, want %+v", got, want)
			}
			fw := reg.Fieldwire()
			if s, f := fw.SparseFrames.Load(), fw.FullFrames.Load(); s != c.sparse || f != c.fulls {
				t.Errorf("field-wire frames sparse=%d full=%d, want %d/%d", s, f, c.sparse, c.fulls)
			}
		})
	}

	// Shard targets. Frame sizes mix a coalesced run with a vectored
	// frame so a suffix can start inside a coalesced run.
	frames := [][]byte{payload(100), payload(200), payload(300), payload(6000)}
	plainRef := func(fs ...[]byte) []byte {
		var s []byte
		for _, f := range fs {
			s = append(s, pumpFrame(nil, f, false)...)
		}
		return s
	}
	type member struct {
		capt   *sendCapture
		frames [][]byte
	}
	// shardRig advertises a raw SFM topic with a one-shard pool on an
	// instrumented node and attaches subscriber connections by hand.
	type shardRig struct {
		reg *obs.Registry
		rp  *RawPublisher
	}
	newRig := func(t *testing.T, opts ...PubOption) *shardRig {
		reg := obs.NewRegistry()
		node, err := NewNode("send_matrix", WithMaster(NewLocalMaster()), WithMetrics(reg), WithoutListener())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		rp, err := AdvertiseRaw(node, "send/matrix", "test_msgs/Endian", "aaaabbbbccccdddd0000111122223333",
			true, core.NativeLittleEndian(), append(opts, WithEgressShards(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return &shardRig{reg: reg, rp: rp}
	}
	attach := func(t *testing.T, r *shardRig, hold <-chan struct{}, frames ...[]byte) *member {
		srv, cli := net.Pipe()
		t.Cleanup(func() { cli.Close() })
		m := &member{capt: captureSend(cli, true, hold, len(plainRef(frames...))), frames: frames}
		req := map[string]string{hdrType: "test_msgs/Endian", hdrMD5: "aaaabbbbccccdddd0000111122223333",
			hdrCallerID: "matrix_sub", hdrFormat: formatSFM}
		if err := r.rp.ep.acceptConn(srv, req); err != nil {
			t.Fatalf("acceptConn: %v", err)
		}
		return m
	}
	publish := func(t *testing.T, r *shardRig, fs ...[]byte) {
		for _, f := range fs {
			if err := r.rp.PublishFrame(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, r *shardRig, want egressCounts, members ...*member) {
		for i, m := range members {
			waitClosed(t, m.capt.full, fmt.Sprintf("member %d's stream", i))
		}
		r.rp.Close()
		for i, m := range members {
			waitClosed(t, m.capt.done, fmt.Sprintf("member %d's connection to close", i))
			got := m.capt.bytes()
			if ref := plainRef(m.frames...); !bytes.Equal(got, ref) {
				t.Fatalf("member %d: wire stream differs from the reference encoding (%d vs %d bytes)",
					i, len(got), len(ref))
			}
			imgs := pumpImages(t, got, decodePlain, nil)
			if len(imgs) != len(m.frames) {
				t.Fatalf("member %d: pump delivered %d frames, want %d", i, len(imgs), len(m.frames))
			}
			for j := range imgs {
				if !bytes.Equal(imgs[j], m.frames[j]) {
					t.Fatalf("member %d: frame %d differs", i, j)
				}
			}
		}
		if got := egressCountsOf(r.reg.Egress()); got != want {
			t.Errorf("egress counts = %+v, want %+v", got, want)
		}
	}

	t.Run("shard/broadcast", func(t *testing.T) {
		r := newRig(t)
		hold := make(chan struct{})
		a := attach(t, r, hold, frames...)
		b := attach(t, r, nil, frames...)
		publish(t, r, frames[0])
		waitClosed(t, a.capt.first, "the first run's write")
		publish(t, r, frames[1:]...)
		close(hold)
		// Two runs ({f0}, {f1 f2 f3}) to two members.
		check(t, r, egressCounts{Writes: 4, Frames: 8, Coalesced: 6,
			FPWCount: 4, FPWMax: 3, BPWMax: int64(len(plainRef(frames[1:]...)))}, a, b)
	})

	t.Run("shard/migrated-suffix", func(t *testing.T) {
		r := newRig(t)
		hold := make(chan struct{})
		x := attach(t, r, hold, frames[0], frames[2], frames[3])
		a := attach(t, r, nil, frames...)
		publish(t, r, frames[0])
		waitClosed(t, x.capt.first, "the first run's write")
		publish(t, r, frames[1:]...)
		// x migrated in from a shard that already wrote it sequence 2:
		// of the pending run {2 3 4} it must receive only {3 4}.
		s := r.rp.ep.pool.shards[0]
		s.mu.Lock()
		xc := s.members[0]
		s.mu.Unlock()
		xc.lastSeq = 2
		close(hold)
		check(t, r, egressCounts{Writes: 4, Frames: 7, Coalesced: 5,
			FPWCount: 4, FPWMax: 3, BPWMax: int64(len(plainRef(frames[1:]...)))}, x, a)
	})

	t.Run("shard/targeted-latch", func(t *testing.T) {
		r := newRig(t, WithLatch())
		latch, next := frames[3], frames[0]
		a := attach(t, r, nil, latch, next)
		publish(t, r, latch)
		waitClosed(t, a.capt.first, "the latched publish")
		late := attach(t, r, nil, latch, next)
		publish(t, r, next)
		check(t, r, egressCounts{Writes: 4, Frames: 4, Coalesced: 2,
			FPWCount: 4, FPWMax: 1, BPWMax: int64(len(plainRef(latch)))}, a, late)
	})
}

// TestRawPublisherGrantsNoShm: a raw SFM publisher ships only frames,
// never descriptors, so a shm offer against it — even on a node with a
// store, from a same-boot peer — must be answered with TCP and must not
// lease one of the store's peer slots.
func TestRawPublisherGrantsNoShm(t *testing.T) {
	if !shm.Available() {
		t.Skip("shared-memory transport unavailable on this platform")
	}
	store, err := shm.NewStore(shm.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	defer store.Close()
	node, err := NewNode("raw_shm", WithMaster(NewLocalMaster()), WithShmStore(store),
		WithMetrics(obs.NewRegistry()), WithoutListener())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rp, err := AdvertiseRaw(node, "raw/noshm", "test_msgs/Endian", "aaaabbbbccccdddd0000111122223333",
		true, core.NativeLittleEndian())
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()

	reply := map[string]string{}
	sender, _ := rp.ep.answerOffers(map[string]string{
		hdrTransports: wire.TransportNameShm + "," + wire.TransportNameTCP,
		hdrPID:        strconv.Itoa(os.Getpid()),
		hdrBootID:     shm.BootID(),
	}, reply)
	if sender != nil {
		store.RetirePeer(sender.peer)
	}
	if got := reply[hdrTransport]; got != wire.TransportNameTCP {
		t.Errorf("raw publisher selected transport %q, want %q", got, wire.TransportNameTCP)
	}
	// The first free peer slot is still slot 0: nothing was leased.
	peer, _, err := store.AcquirePeer(uint32(os.Getpid()))
	if err != nil {
		t.Fatal(err)
	}
	store.RetirePeer(peer)
	if peer != 0 {
		t.Errorf("negotiation leased peer slot(s): next free slot is %d, want 0", peer)
	}
}
