package ros_test

import (
	"encoding/binary"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
)

// TestSubscribeRawROS1 receives undecoded ROS1 frames.
func TestSubscribeRawROS1(t *testing.T) {
	m := ros.NewLocalMaster()
	pubNode := newNode(t, "pub", m)
	subNode := newNode(t, "tool", m)

	pub, err := ros.Advertise[testImage](pubNode, "raw/topic")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ros.RawMessage, 1)
	var img testImage
	_, err = ros.SubscribeRaw(subNode, "raw/topic",
		img.ROSMessageType(), img.ROSMD5Sum(), false,
		func(rm ros.RawMessage) {
			cp := rm
			cp.Frame = append([]byte(nil), rm.Frame...)
			got <- cp
		})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "raw attach", func() bool { return pub.NumSubscribers() == 1 })

	src := &testImage{Height: 3, Width: 4, Encoding: "x", Data: []byte{1, 2}}
	pub.Publish(src)
	select {
	case rm := <-got:
		if rm.Format != "ros1" {
			t.Errorf("format = %q", rm.Format)
		}
		if len(rm.Frame) != src.SerializedSizeROS() {
			t.Errorf("frame = %d bytes, want %d", len(rm.Frame), src.SerializedSizeROS())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no raw frame")
	}
}

// TestSubscribeRawSFM receives SFM frames with the endian annotation.
func TestSubscribeRawSFM(t *testing.T) {
	m := ros.NewLocalMaster()
	pubNode := newNode(t, "pub", m)
	subNode := newNode(t, "tool", m)

	pub, err := ros.Advertise[testImageSF](pubNode, "raw/sfm")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ros.RawMessage, 1)
	var img testImageSF
	_, err = ros.SubscribeRaw(subNode, "raw/sfm",
		img.ROSMessageType(), img.ROSMD5Sum(), true,
		func(rm ros.RawMessage) {
			cp := rm
			cp.Frame = append([]byte(nil), rm.Frame...)
			got <- cp
		})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "raw sfm attach", func() bool { return pub.NumSubscribers() == 1 })

	src, _ := core.NewWithCapacity[testImageSF](4096)
	src.Height = 9
	src.Data.MustResize(100)
	wire, _ := core.Bytes(src)
	wantLen := len(wire)
	pub.Publish(src)
	core.Release(src)

	select {
	case rm := <-got:
		if rm.Format != "sfm" {
			t.Errorf("format = %q", rm.Format)
		}
		if len(rm.Frame) != wantLen {
			t.Errorf("frame = %d bytes, want %d", len(rm.Frame), wantLen)
		}
		if rm.LittleEndian != core.NativeLittleEndian() {
			t.Error("endian annotation wrong")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no raw SFM frame")
	}
}

// TestTopicsInfoOverProtocol checks the introspection op end to end.
func TestTopicsInfoOverProtocol(t *testing.T) {
	srv, err := ros.NewMasterServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rm, err := ros.DialMaster(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rm.Close()

	node := newNode(t, "pub", rm)
	if _, err := ros.Advertise[testImage](node, "intro/one"); err != nil {
		t.Fatal(err)
	}
	if _, err := ros.Advertise[otherType](node, "intro/two"); err != nil {
		t.Fatal(err)
	}

	infos, err := rm.TopicsInfo()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ros.TopicInfo)
	for _, ti := range infos {
		byName[ti.Name] = ti
	}
	one, ok := byName["intro/one"]
	if !ok || one.TypeName != "test_msgs/Image" || one.NumPublishers != 1 {
		t.Errorf("intro/one = %+v", one)
	}
	if _, ok := byName["intro/two"]; !ok {
		t.Error("intro/two missing")
	}
}

// TestSubscribeRawSFMAgainstShmPublisher: raw subscriptions are
// TCP-only, so against a publisher with a shared-memory store the very
// first handshake must connect over TCP — no shm offer the raw pump
// cannot take, no retrying cycle, no fallback counted.
func TestSubscribeRawSFMAgainstShmPublisher(t *testing.T) {
	reg := obs.NewRegistry()
	store := newShmStore(t, reg)
	m := ros.NewLocalMaster()
	pubNode := newNodeOpts(t, "pub", ros.WithMaster(m), ros.WithShmStore(store), ros.WithMetrics(reg))
	subNode := newNodeOpts(t, "tool", ros.WithMaster(m), ros.WithMetrics(reg))

	pub, err := ros.Advertise[testImageSF](pubNode, "raw/shm")
	if err != nil {
		t.Fatal(err)
	}
	states := make(chan ros.ConnState, 8)
	got := make(chan uint32, 8)
	var img testImageSF
	sub, err := ros.SubscribeRaw(subNode, "raw/shm", img.ROSMessageType(), img.ROSMD5Sum(), true,
		func(rm ros.RawMessage) { got <- binary.NativeEndian.Uint32(rm.Frame) },
		ros.WithConnState(func(_ string, s ros.ConnState) { states <- s }))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	select {
	case s := <-states:
		if s != ros.ConnConnected {
			t.Fatalf("first ConnState = %v, want connected", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("raw subscription never reported a link state")
	}
	eventually(t, "raw attach", func() bool { return pub.NumSubscribers() == 1 })

	src, _ := core.NewWithCapacity[testImageSF](4096)
	src.Height = 5
	if err := pub.Publish(src); err != nil {
		t.Fatal(err)
	}
	core.Release(src)
	select {
	case h := <-got:
		if h != 5 {
			t.Errorf("height = %d, want 5", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no raw SFM frame")
	}
	if n := reg.Snapshot().Shm.Fallbacks; n != 0 {
		t.Errorf("shm.fallbacks = %d, want 0", n)
	}
}
