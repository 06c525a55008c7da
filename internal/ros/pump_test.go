package ros

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// pumpROS1Msg is a minimal regular message for the receive-pump matrix.
type pumpROS1Msg struct{ Height uint32 }

func (*pumpROS1Msg) ROSMessageType() string              { return "test_msgs/PumpROS1" }
func (*pumpROS1Msg) ROSMD5Sum() string                   { return "0123456789abcdef0123456789abcdef" }
func (*pumpROS1Msg) SerializedSizeROS() int              { return 4 }
func (m *pumpROS1Msg) SerializeROS(w *wire.Writer) error { w.U32(m.Height); return nil }
func (m *pumpROS1Msg) DeserializeROS(r *wire.Reader) error {
	m.Height = r.U32()
	return r.Err()
}

// pumpGarbage is the length of the non-frame run injected between the
// damaged frame and the second valid one; no byte of it starts a frame
// magic, so the reader must skip exactly this many bytes.
const pumpGarbage = 37

// pumpFrame encodes one checked frame whose payload is tag||body (no
// tag when tag is nil); damage flips the header checksum.
func pumpFrame(tag []byte, body []byte, damage bool) []byte {
	crc := wire.Checksum2(tag, body)
	if damage {
		crc ^= 0x5a5a5a5a
	}
	f := make([]byte, wire.FrameHeaderSize, wire.FrameHeaderSize+len(tag)+len(body))
	wire.PutFrameHeader(f, len(tag)+len(body), crc)
	return append(append(f, tag...), body...)
}

// pumpStream is the adversarial stream every decoder × sink pair gets:
// a valid frame, a frame that fails its integrity check, garbage, and a
// second valid frame.
func pumpStream(good1, bad, good2 []byte) []byte {
	s := append(append([]byte(nil), good1...), bad...)
	for i := 0; i < pumpGarbage; i++ {
		s = append(s, 0xEE)
	}
	return append(s, good2...)
}

// pipePublisher is a hand-speaking fake publisher reached through
// net.Pipe: the first dial gets the handshake reply followed by stream;
// the connection then stays open until the test ends. Later dials fail.
func pipePublisher(t *testing.T, reply map[string]string, stream []byte) DialFunc {
	done := make(chan struct{})
	var wg sync.WaitGroup
	t.Cleanup(func() { close(done); wg.Wait() })
	var once sync.Once
	return func(string) (net.Conn, error) {
		var cli net.Conn
		once.Do(func() {
			var srv net.Conn
			cli, srv = net.Pipe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer srv.Close()
				if _, err := readHeader(srv); err != nil {
					return
				}
				if writeHeader(srv, reply) != nil {
					return
				}
				if _, err := srv.Write(stream); err != nil {
					return
				}
				<-done
			}()
		})
		if cli == nil {
			return nil, errors.New("pipe publisher: already dialed")
		}
		return cli, nil
	}
}

// TestReceivePumpMatrix feeds every decoder × sink pair the same
// adversarial stream through net.Pipe — valid frame, CRC-damaged (or
// otherwise undecodable) frame, pumpGarbage garbage bytes, valid frame —
// and pins the per-frame invariants every pair must share: exactly two
// deliveries carrying the sent value, one corrupt frame counted, and
// exactly the garbage run counted as resync bytes.
func TestReceivePumpMatrix(t *testing.T) {
	const want = 7

	// The SFM image every SFM pair carries, and its ROS1 counterpart.
	src, err := core.NewWithCapacity[endianMsg](4096)
	if err != nil {
		t.Fatal(err)
	}
	src.Height, src.Width = want, 9
	src.Label.MustSet("pump")
	sfmImage, err := core.Bytes(src)
	if err != nil {
		t.Fatal(err)
	}
	sfmImage = append([]byte(nil), sfmImage...)
	core.Release(src)
	ros1Body := binary.LittleEndian.AppendUint32(nil, want)

	// A sparse payload carrying only Height and Width (bytes 0..8).
	ranges := []fieldwire.Range{{Off: 0, Len: 8}}
	sparse := fieldwire.AppendTable(nil, len(sfmImage), ranges, sfmImage)
	sparse = append(sparse, sfmImage[0:8]...)

	const (
		sfmType  = "test_msgs/Endian"
		sfmMD5   = "aaaabbbbccccdddd0000111122223333"
		ros1Type = "test_msgs/PumpROS1"
		ros1MD5  = "0123456789abcdef0123456789abcdef"
	)
	native := nativeEndianName(core.NativeLittleEndian())
	sfmReply := map[string]string{hdrType: sfmType, hdrMD5: sfmMD5,
		hdrCallerID: "pipe_pub", hdrFormat: formatSFM, hdrEndian: native}
	ros1Reply := map[string]string{hdrType: ros1Type, hdrMD5: ros1MD5,
		hdrCallerID: "pipe_pub", hdrFormat: formatROS1, hdrEndian: native}
	with := func(base map[string]string, extra map[string]string) map[string]string {
		out := make(map[string]string, len(base)+len(extra))
		for k, v := range base {
			out[k] = v
		}
		for k, v := range extra {
			out[k] = v
		}
		return out
	}
	sparseReply := with(sfmReply, map[string]string{hdrFieldwire: fieldwireV1})

	subSFM := func(n *Node, topic string, got chan<- uint32, opts ...SubOption) (*Subscriber, error) {
		return Subscribe(n, topic, func(m *endianMsg) { got <- m.Height }, opts...)
	}
	subROS1 := func(n *Node, topic string, got chan<- uint32, _ ...SubOption) (*Subscriber, error) {
		return Subscribe(n, topic, func(m *pumpROS1Msg) { got <- m.Height })
	}
	subRaw := func(sfm bool) func(*Node, string, chan<- uint32, ...SubOption) (*Subscriber, error) {
		typeName, md5, order := ros1Type, ros1MD5, binary.ByteOrder(binary.LittleEndian)
		if sfm {
			typeName, md5, order = sfmType, sfmMD5, binary.NativeEndian
		}
		return func(n *Node, topic string, got chan<- uint32, opts ...SubOption) (*Subscriber, error) {
			return SubscribeRaw(n, topic, typeName, md5, sfm, func(m RawMessage) {
				got <- order.Uint32(m.Frame)
			}, opts...)
		}
	}

	type pumpCase struct {
		name              string
		typeName, md5     string
		reply             map[string]string
		good1, bad, good2 []byte
		subscribe         func(*Node, string, chan<- uint32, ...SubOption) (*Subscriber, error)
		opts              []SubOption
	}
	cases := []pumpCase{
		{name: "plain×ros1", typeName: ros1Type, md5: ros1MD5, reply: ros1Reply,
			good1: pumpFrame(nil, ros1Body, false), bad: pumpFrame(nil, ros1Body, true),
			good2: pumpFrame(nil, ros1Body, false), subscribe: subROS1},
		{name: "plain×sfm", typeName: sfmType, md5: sfmMD5, reply: sfmReply,
			good1: pumpFrame(nil, sfmImage, false), bad: pumpFrame(nil, sfmImage, true),
			good2: pumpFrame(nil, sfmImage, false), subscribe: subSFM},
		{name: "plain×raw", typeName: ros1Type, md5: ros1MD5, reply: ros1Reply,
			good1: pumpFrame(nil, ros1Body, false), bad: pumpFrame(nil, ros1Body, true),
			good2: pumpFrame(nil, ros1Body, false), subscribe: subRaw(false)},
		{name: "sparse×sfm", typeName: sfmType, md5: sfmMD5, reply: sparseReply,
			good1: pumpFrame(nil, sparse, false), bad: pumpFrame(nil, sparse, true),
			good2: pumpFrame(nil, sparse, false), subscribe: subSFM,
			opts: []SubOption{WithFields("height", "width")}},
		{name: "sparse×raw", typeName: sfmType, md5: sfmMD5, reply: sparseReply,
			good1: pumpFrame(nil, sparse, false), bad: pumpFrame(nil, sparse, true),
			good2: pumpFrame(nil, sparse, false), subscribe: subRaw(true),
			opts: []SubOption{WithFields("height", "width")}},
	}

	// The tagged pairs need a real store: descriptors resolve through a
	// mapper over its segments.
	var store *shm.Store
	if shm.Available() {
		store, err = shm.NewStore(shm.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		t.Cleanup(func() { store.Close() })
		mgr := core.NewManager()
		mgr.SetBackingStore(store)
		// A peer holds at most one reference per slot, so every
		// descriptor on a stream points at its own shared message.
		newShared := func() *endianMsg {
			m, err := core.NewIn[endianMsg](mgr, 4096)
			if err != nil {
				t.Fatal(err)
			}
			m.Height = want
			t.Cleanup(func() { core.Release(m) })
			return m
		}

		tagInl, tagDesc := []byte{tagInline}, []byte{tagDescriptor}
		for _, kind := range []string{"inline", "descriptor", "short-descriptor"} {
			peer, gen, err := store.AcquirePeer(uint32(os.Getpid()))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.RetirePeer(peer) })
			desc := func() []byte {
				h, used, _, ok := core.PromoteShared(newShared(), store)
				if !ok {
					t.Fatal("message not in a shared slot")
				}
				d, err := store.Share(h, peer, gen, used)
				if err != nil {
					t.Fatal(err)
				}
				return d.AppendTo(nil)
			}
			c := pumpCase{name: "tagged×sfm/" + kind, typeName: sfmType, md5: sfmMD5,
				subscribe: subSFM,
				reply: with(sfmReply, map[string]string{
					hdrTransport:  wire.TransportNameShm,
					hdrShmPrefix:  store.Prefix(),
					hdrShmPeer:    strconv.Itoa(peer),
					hdrShmLeaseMS: strconv.FormatInt(store.LeaseTimeout().Milliseconds(), 10),
					hdrShmGen:     strconv.FormatUint(uint64(gen), 10),
				})}
			switch kind {
			case "inline":
				c.good1, c.bad, c.good2 = pumpFrame(tagInl, sfmImage, false),
					pumpFrame(tagInl, sfmImage, true), pumpFrame(tagInl, sfmImage, false)
			case "descriptor":
				c.good1, c.bad, c.good2 = pumpFrame(tagDesc, desc(), false),
					pumpFrame(tagDesc, make([]byte, shm.DescriptorSize), true), pumpFrame(tagDesc, desc(), false)
			case "short-descriptor":
				// A descriptor frame of the wrong length passes its checksum
				// but can never resolve: dropped as corrupt.
				c.good1, c.bad, c.good2 = pumpFrame(tagDesc, desc(), false),
					pumpFrame(tagDesc, make([]byte, shm.DescriptorSize-1), false), pumpFrame(tagDesc, desc(), false)
			}
			cases = append(cases, c)
		}
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			const topic = "pump/matrix"
			master := NewLocalMaster()
			if _, err := master.RegisterPublisher(topic, PublisherInfo{
				NodeName: "pipe_pub", Addr: "pipe:1", TypeName: c.typeName, MD5: c.md5,
			}); err != nil {
				t.Fatal(err)
			}
			dial := pipePublisher(t, c.reply, pumpStream(c.good1, c.bad, c.good2))
			node, err := NewNode("pump_sub", WithMaster(master), WithDialer(dial), WithoutListener())
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			got := make(chan uint32, 4)
			sub, err := c.subscribe(node, topic, got, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()

			for i := 0; i < 2; i++ {
				select {
				case h := <-got:
					if h != want {
						t.Fatalf("delivery %d carried %d, want %d", i+1, h, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("delivery %d never arrived (corrupt=%d resync=%d)",
						i+1, sub.CorruptFrames(), sub.ResyncedBytes())
				}
			}
			if n := sub.CorruptFrames(); n != 1 {
				t.Errorf("CorruptFrames = %d, want 1", n)
			}
			if n := sub.ResyncedBytes(); n != pumpGarbage {
				t.Errorf("ResyncedBytes = %d, want %d", n, pumpGarbage)
			}
			select {
			case h := <-got:
				t.Errorf("unexpected third delivery (%d)", h)
			case <-time.After(20 * time.Millisecond):
			}
		})
	}
	if store == nil {
		t.Log("tagged pairs skipped: shared-memory transport unavailable")
	}
}
