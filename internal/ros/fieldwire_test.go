package ros_test

import (
	"bytes"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/ros"
	"rossf/msgs/sensor_msgs"
)

// newMaskImage builds an ImageSF with a recognizable pattern in every
// field a mask test cares about.
func newMaskImage(t *testing.T, seq uint32, dataSize int) *sensor_msgs.ImageSF {
	t.Helper()
	img, err := core.NewWithCapacity[sensor_msgs.ImageSF](dataSize + 8192)
	if err != nil {
		t.Fatalf("NewWithCapacity: %v", err)
	}
	img.Header.Seq = seq
	img.Header.Stamp.Sec = 100 + seq
	img.Header.Stamp.Nsec = 42
	img.Header.FrameID.MustSet("cam0")
	img.Height = 480
	img.Width = 640
	img.Encoding.MustSet("rgb8")
	if err := img.Data.Resize(dataSize); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	d := img.Data.Slice()
	for i := range d {
		d[i] = byte(seq) + byte(i)
	}
	return img
}

func newMetricNode(t *testing.T, name string, m ros.Master, reg *obs.Registry) *ros.Node {
	t.Helper()
	n, err := ros.NewNode(name, ros.WithMaster(m), ros.WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewNode(%s): %v", name, err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// TestFieldMaskDeliversRequestedFieldsOnly is the tentpole contract: a
// subscriber that declared a header-only mask receives those fields
// intact while every untransmitted field reads as its typed zero value
// — empty vector, empty string, zero scalar — never garbage; and the
// wire moved measurably fewer bytes than the message holds.
func TestFieldMaskDeliversRequestedFieldsOnly(t *testing.T) {
	m := ros.NewLocalMaster()
	reg := obs.NewRegistry()
	pubNode := newMetricNode(t, "pub", m, reg)
	subNode := newMetricNode(t, "sub", m, reg)

	const dataSize = 64 << 10
	got := make(chan *sensor_msgs.ImageSF, 8)
	sub, err := ros.Subscribe(subNode, "mask/image", func(img *sensor_msgs.ImageSF) {
		if core.Retain(img) == nil {
			got <- img
		}
	}, ros.WithTransport(ros.TransportTCP),
		ros.WithFields("header.seq", "header.stamp", "header.frame_id", "height"))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "mask/image")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	defer pub.Close()
	eventually(t, "masked subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	img := newMaskImage(t, 7, dataSize)
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img)

	select {
	case rx := <-got:
		if rx.Header.Seq != 7 || rx.Header.Stamp.Sec != 107 || rx.Header.Stamp.Nsec != 42 {
			t.Errorf("requested header fields damaged: %+v", rx.Header)
		}
		if rx.Header.FrameID.Get() != "cam0" {
			t.Errorf("frame_id = %q, want cam0", rx.Header.FrameID.Get())
		}
		if rx.Height != 480 {
			t.Errorf("height = %d, want 480", rx.Height)
		}
		// Typed miss: unrequested fields are empty/zero, not garbage.
		if rx.Width != 0 {
			t.Errorf("unmasked width = %d, want 0", rx.Width)
		}
		if rx.Encoding.IsSet() {
			t.Errorf("unmasked encoding = %q, want unset", rx.Encoding.Get())
		}
		if rx.Data.Len() != 0 {
			t.Errorf("unmasked data has %d bytes, want 0", rx.Data.Len())
		}
		core.Release(rx)
	case <-time.After(5 * time.Second):
		t.Fatal("no masked message received")
	}

	fw := reg.Snapshot().Fieldwire
	if fw.MaskedSubscriptions == 0 {
		t.Error("masked_subscriptions counter never incremented")
	}
	if fw.SparseFrames == 0 {
		t.Error("no sparse frames counted")
	}
	if fw.BytesSaved < uint64(dataSize/2) {
		t.Errorf("bytes_saved = %d, want at least %d", fw.BytesSaved, dataSize/2)
	}
}

// TestFieldMaskMixedFleetConverges attaches a masked subscriber, an
// unmasked one, and one whose mask the publisher must reject (unknown
// field) to a single topic: each receives correct data simultaneously —
// the masked one its fields, the other two the full byte-identical
// message.
func TestFieldMaskMixedFleetConverges(t *testing.T) {
	m := ros.NewLocalMaster()
	reg := obs.NewRegistry()
	pubNode := newMetricNode(t, "pub", m, reg)
	subNode := newMetricNode(t, "sub", m, reg)

	const dataSize = 16 << 10
	type rx struct {
		seq  uint32
		data []byte
	}
	masked := make(chan rx, 16)
	full := make(chan rx, 16)
	rejected := make(chan rx, 16)
	collect := func(ch chan rx) func(*sensor_msgs.ImageSF) {
		return func(img *sensor_msgs.ImageSF) {
			ch <- rx{seq: img.Header.Seq, data: append([]byte(nil), img.Data.Slice()...)}
		}
	}
	subM, err := ros.Subscribe(subNode, "mask/fleet", collect(masked),
		ros.WithTransport(ros.TransportTCP), ros.WithFields("header.seq"))
	if err != nil {
		t.Fatalf("Subscribe masked: %v", err)
	}
	defer subM.Close()
	subF, err := ros.Subscribe(subNode, "mask/fleet", collect(full),
		ros.WithTransport(ros.TransportTCP))
	if err != nil {
		t.Fatalf("Subscribe full: %v", err)
	}
	defer subF.Close()
	// An unknown field makes the publisher reject the mask; the
	// connection must converge to full frames, not fail.
	subR, err := ros.Subscribe(subNode, "mask/fleet", collect(rejected),
		ros.WithTransport(ros.TransportTCP), ros.WithFields("no_such_field"))
	if err != nil {
		t.Fatalf("Subscribe rejected: %v", err)
	}
	defer subR.Close()

	pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "mask/fleet")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	defer pub.Close()
	eventually(t, "three subscriber connections", func() bool { return pub.NumSubscribers() == 3 })

	img := newMaskImage(t, 11, dataSize)
	want := append([]byte(nil), img.Data.Slice()...)
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img)

	deadline := time.After(5 * time.Second)
	for name, ch := range map[string]chan rx{"masked": masked, "full": full, "rejected": rejected} {
		select {
		case got := <-ch:
			if got.seq != 11 {
				t.Errorf("%s subscriber: seq %d, want 11", name, got.seq)
			}
			switch name {
			case "masked":
				if len(got.data) != 0 {
					t.Errorf("masked subscriber received %d data bytes, want 0", len(got.data))
				}
			default:
				if !bytes.Equal(got.data, want) {
					t.Errorf("%s subscriber data differs from published bytes", name)
				}
			}
		case <-deadline:
			t.Fatalf("%s subscriber received nothing", name)
		}
	}

	fw := reg.Snapshot().Fieldwire
	if fw.MaskRejects == 0 || fw.RejectReasons.Unmappable == 0 {
		t.Errorf("expected an unmappable_field mask reject, got %+v", fw.RejectReasons)
	}
	if fw.SparseFrames == 0 {
		t.Error("masked connection never shipped a sparse frame")
	}
}

// TestFieldMaskNoMapFallsBackToFullFrames subscribes with a mask to an
// SFM type that has no registered wire map (a hand-written type — the
// stand-in for an old publisher build): the publisher rejects the mask
// by reason and the subscription still delivers complete messages.
func TestFieldMaskNoMapFallsBackToFullFrames(t *testing.T) {
	m := ros.NewLocalMaster()
	reg := obs.NewRegistry()
	pubNode := newMetricNode(t, "pub", m, reg)
	subNode := newMetricNode(t, "sub", m, reg)

	got := make(chan string, 8)
	sub, err := ros.Subscribe(subNode, "mask/nomap", func(img *testImageSF) {
		got <- img.Encoding.Get()
	}, ros.WithTransport(ros.TransportTCP), ros.WithFields("height"))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	pub, err := ros.Advertise[testImageSF](pubNode, "mask/nomap")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	defer pub.Close()
	eventually(t, "subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	img, err := core.New[testImageSF]()
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	img.Height = 2
	img.Encoding.MustSet("mono8")
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img)

	select {
	case enc := <-got:
		if enc != "mono8" {
			t.Errorf("encoding = %q, want mono8 (full-frame fallback must deliver everything)", enc)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no message received after mask reject")
	}
	fw := reg.Snapshot().Fieldwire
	if fw.MaskRejects == 0 || fw.RejectReasons.NoMap == 0 {
		t.Errorf("expected a no_wire_map reject, got %+v", fw.RejectReasons)
	}
	if fw.SparseFrames != 0 {
		t.Errorf("sparse frames on a rejected-mask connection: %d", fw.SparseFrames)
	}
}

// TestFieldMaskLatchedDelivery checks the latch path: encoding happens
// in the write stage, so a late masked subscriber receives the latched
// message sliced by its mask.
func TestFieldMaskLatchedDelivery(t *testing.T) {
	m := ros.NewLocalMaster()
	reg := obs.NewRegistry()
	pubNode := newMetricNode(t, "pub", m, reg)
	subNode := newMetricNode(t, "sub", m, reg)

	pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "mask/latch", ros.WithLatch())
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	defer pub.Close()
	img := newMaskImage(t, 23, 8<<10)
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img)

	got := make(chan rxHeader, 4)
	sub, err := ros.Subscribe(subNode, "mask/latch", func(img *sensor_msgs.ImageSF) {
		got <- rxHeader{seq: img.Header.Seq, frame: img.Header.FrameID.Get(), data: img.Data.Len()}
	}, ros.WithTransport(ros.TransportTCP),
		ros.WithFields("header.seq", "header.frame_id"))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	select {
	case rx := <-got:
		if rx.seq != 23 || rx.frame != "cam0" {
			t.Errorf("latched masked delivery: %+v", rx)
		}
		if rx.data != 0 {
			t.Errorf("latched masked delivery carried %d data bytes, want 0", rx.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("late masked subscriber never received the latched message")
	}
}

type rxHeader struct {
	seq   uint32
	frame string
	data  int
}

// TestWithFieldsRequiresSFMType: field masks are an SFM-path feature;
// a serializing subscription must reject the option loudly.
func TestWithFieldsRequiresSFMType(t *testing.T) {
	m := ros.NewLocalMaster()
	subNode := newNode(t, "sub", m)
	_, err := ros.Subscribe(subNode, "mask/ros1", func(*testImage) {},
		ros.WithFields("height"))
	if err == nil {
		t.Fatal("Subscribe accepted WithFields on a serializable type")
	}
}

// TestMaskedSubscriptionsCountsEachSide: masked_subscriptions counts a
// live masked link once on each side, so a process that only
// subscribes reports its masked links too.
func TestMaskedSubscriptionsCountsEachSide(t *testing.T) {
	m := ros.NewLocalMaster()
	pubReg, subReg := obs.NewRegistry(), obs.NewRegistry()
	pubNode := newMetricNode(t, "pub", m, pubReg)
	subNode := newMetricNode(t, "sub", m, subReg)

	got := make(chan uint32, 1)
	sub, err := ros.Subscribe(subNode, "mask/count", func(img *sensor_msgs.ImageSF) {
		got <- img.Header.Seq
	}, ros.WithTransport(ros.TransportTCP), ros.WithFields("header.seq"))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	pub, err := ros.Advertise[sensor_msgs.ImageSF](pubNode, "mask/count")
	if err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	defer pub.Close()
	eventually(t, "masked subscriber connection", func() bool { return pub.NumSubscribers() == 1 })

	// A delivered sparse frame proves the link is live on both sides.
	img := newMaskImage(t, 3, 1024)
	if err := pub.Publish(img); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	core.Release(img)
	select {
	case seq := <-got:
		if seq != 3 {
			t.Fatalf("seq = %d, want 3", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no masked message received")
	}
	if n := subReg.Snapshot().Fieldwire.MaskedSubscriptions; n != 1 {
		t.Errorf("subscriber-side masked_subscriptions = %d, want 1", n)
	}
	if n := pubReg.Snapshot().Fieldwire.MaskedSubscriptions; n != 1 {
		t.Errorf("publisher-side masked_subscriptions = %d, want 1", n)
	}
}
