package ros

import (
	"net"
	"testing"
	"time"

	"rossf/internal/core"
)

// endianMsg is a local SFM type for the cross-endian peer test.
type endianMsg struct {
	Height uint32
	Width  uint32
	Label  core.String
	Data   core.Vector[uint32]
}

func (*endianMsg) ROSMessageType() string { return "test_msgs/Endian" }
func (*endianMsg) ROSMD5Sum() string      { return "aaaabbbbccccdddd0000111122223333" }
func (*endianMsg) SFMMessage()            {}

// TestSFMForeignEndianPeer reproduces §4.4.1: a publisher of the
// opposite byte order sends a frame in its native order; the subscriber
// detects the mismatch from the connection header and converts in
// place. The fake peer below hand-speaks the wire protocol and
// byte-swaps a locally built message to synthesize the foreign frame.
func TestSFMForeignEndianPeer(t *testing.T) {
	// Build the reference message and its foreign-order frame.
	src, err := core.NewWithCapacity[endianMsg](4096)
	if err != nil {
		t.Fatal(err)
	}
	src.Height, src.Width = 0x01020304, 7
	src.Label.MustSet("frame")
	src.Data.MustResize(3)
	copy(src.Data.Slice(), []uint32{0xAABBCCDD, 1, 2})
	native, err := core.Bytes(src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := core.LayoutOf[endianMsg]()
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]byte(nil), native...)
	if err := core.ForeignizeEndianness(foreign, layout); err != nil {
		t.Fatal(err)
	}
	core.Release(src)

	foreignName := endianBig
	if !core.NativeLittleEndian() {
		foreignName = endianLittle
	}

	// Fake publisher: accept the subscriber, answer the handshake
	// claiming the foreign byte order, then send the foreign frame.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readHeader(conn); err != nil {
			return
		}
		writeHeader(conn, map[string]string{
			hdrType:     "test_msgs/Endian",
			hdrMD5:      "aaaabbbbccccdddd0000111122223333",
			hdrCallerID: "foreign_peer",
			hdrFormat:   formatSFM,
			hdrEndian:   foreignName,
		})
		writeFrame(conn, foreign)
		time.Sleep(time.Second) // keep the conn open until the test ends
	}()

	master := NewLocalMaster()
	if _, err := master.RegisterPublisher("endian/topic", PublisherInfo{
		NodeName: "foreign_peer", Addr: l.Addr().String(),
		TypeName: "test_msgs/Endian", MD5: "aaaabbbbccccdddd0000111122223333",
	}); err != nil {
		t.Fatal(err)
	}
	node, err := NewNode("sub", WithMaster(master))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	type snapshot struct {
		h, w   uint32
		label  string
		first  uint32
		length int
	}
	got := make(chan snapshot, 1)
	if _, err := Subscribe(node, "endian/topic", func(m *endianMsg) {
		got <- snapshot{m.Height, m.Width, m.Label.Get(), m.Data.Slice()[0], m.Data.Len()}
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case s := <-got:
		if s.h != 0x01020304 || s.w != 7 {
			t.Errorf("scalars = %#x %d, conversion failed", s.h, s.w)
		}
		if s.label != "frame" {
			t.Errorf("label = %q", s.label)
		}
		if s.length != 3 || s.first != 0xAABBCCDD {
			t.Errorf("data = len %d first %#x", s.length, s.first)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no converted message from foreign peer")
	}
}

// TestRawForeignEndianFrameConverted: a raw publisher replaying frames
// recorded in the opposite byte order declares that order, and a typed
// SFM subscriber converts on arrival whichever transport carries the
// frame — the in-process hand-over included.
func TestRawForeignEndianFrameConverted(t *testing.T) {
	src, err := core.NewWithCapacity[endianMsg](4096)
	if err != nil {
		t.Fatal(err)
	}
	src.Height, src.Width = 7, 0x01020304
	src.Label.MustSet("replay")
	native, err := core.Bytes(src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := core.LayoutOf[endianMsg]()
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]byte(nil), native...)
	if err := core.ForeignizeEndianness(foreign, layout); err != nil {
		t.Fatal(err)
	}
	core.Release(src)

	for _, mode := range []TransportMode{TransportAuto, TransportTCP} {
		master := NewLocalMaster()
		node, err := NewNode("replay", WithMaster(master))
		if err != nil {
			t.Fatal(err)
		}
		pub, err := AdvertiseRaw(node, "endian/raw", "test_msgs/Endian",
			"aaaabbbbccccdddd0000111122223333", true, !core.NativeLittleEndian())
		if err != nil {
			t.Fatal(err)
		}
		// Only scalars are read: an unconverted image's string descriptor
		// would point outside the arena.
		type snapshot struct{ h, w uint32 }
		got := make(chan snapshot, 1)
		sub, err := Subscribe(node, "endian/raw", func(m *endianMsg) {
			got <- snapshot{m.Height, m.Width}
		}, WithTransport(mode))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for pub.NumSubscribers() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := pub.PublishFrame(foreign); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-got:
			if s.h != 7 || s.w != 0x01020304 {
				t.Errorf("mode %d: got height %d width %#x, want 7 0x1020304", mode, s.h, s.w)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("mode %d: no message", mode)
		}
		sub.Close()
		pub.Close()
		node.Close()
	}
}
