package ros

import (
	"net"
	"testing"
	"time"

	"rossf/internal/core"
	"rossf/internal/wire"
)

// stubConn satisfies net.Conn for queue tests without any I/O.
type stubConn struct{ net.Conn }

func (stubConn) Close() error { return nil }

// TestEnqueueDropsOldest pins the ROS queue_size semantics: when the
// outbound queue is full the oldest frame is evicted (and its arena
// reference released), never the newest.
func TestEnqueueDropsOldest(t *testing.T) {
	pc := &pubConn{
		conn: stubConn{},
		ch:   make(chan frameItem, 2),
		stop: make(chan struct{}),
	}
	mkItem := func(seq byte) frameItem {
		return frameItem{data: []byte{seq}}
	}

	pc.enqueue(mkItem(1))
	pc.enqueue(mkItem(2))
	pc.enqueue(mkItem(3)) // evicts 1
	pc.enqueue(mkItem(4)) // evicts 2

	got := []byte{(<-pc.ch).data[0], (<-pc.ch).data[0]}
	if got[0] != 3 || got[1] != 4 {
		t.Errorf("queue = %v, want [3 4]", got)
	}
}

// TestEnqueueReleasesEvictedRefs verifies evicted SFM frames give their
// arena reference back (no leak when a subscriber is slow).
func TestEnqueueReleasesEvictedRefs(t *testing.T) {
	pc := &pubConn{
		conn: stubConn{},
		ch:   make(chan frameItem, 1),
		stop: make(chan struct{}),
	}
	m1, err := core.NewWithCapacity[queueMsg](1024)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.NewWithCapacity[queueMsg](1024)
	if err != nil {
		t.Fatal(err)
	}

	ref1, _ := core.NewRef(m1)
	ref2, _ := core.NewRef(m2)
	// Developer released both; only queue refs keep them alive.
	core.Release(m1)
	core.Release(m2)

	pc.enqueue(frameItem{ref: &ref1})
	pc.enqueue(frameItem{ref: &ref2}) // evicts and releases ref1

	if n, err := core.RefCountOf(m2); err != nil || n != 1 {
		t.Errorf("queued message refs = %d, %v", n, err)
	}
	if _, err := core.RefCountOf(m1); err == nil {
		t.Error("evicted message still registered; its ref was not released")
	}

	pc.teardown()
	if _, err := core.RefCountOf(m2); err == nil {
		t.Error("teardown did not drain and release the queue")
	}
}

type queueMsg struct {
	X uint64
}

// TestEnqueueAfterStopReleases ensures a racing publish against
// teardown cannot leak its reference.
func TestEnqueueAfterStopReleases(t *testing.T) {
	pc := &pubConn{
		conn: stubConn{},
		ch:   make(chan frameItem, 1),
		stop: make(chan struct{}),
	}
	pc.teardown()

	m, err := core.NewWithCapacity[queueMsg](1024)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := core.NewRef(m)
	core.Release(m)
	pc.enqueue(frameItem{ref: &ref})
	if _, err := core.RefCountOf(m); err == nil {
		t.Error("enqueue after stop kept the reference alive")
	}
}

// TestHeaderRoundTrip exercises the TCPROS-style header codec.
func TestHeaderRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	fields := map[string]string{
		hdrTopic: "a/b", hdrType: "pkg/T", hdrMD5: "0123", hdrCallerID: "node",
		hdrFormat: formatSFM, hdrEndian: endianLittle,
	}
	done := make(chan map[string]string, 1)
	go func() {
		got, err := readHeader(server)
		if err != nil {
			close(done)
			return
		}
		done <- got
	}()
	if err := writeHeader(client, fields); err != nil {
		t.Fatal(err)
	}
	select {
	case got, ok := <-done:
		if !ok {
			t.Fatal("read side failed")
		}
		for k, v := range fields {
			if got[k] != v {
				t.Errorf("field %s = %q, want %q", k, got[k], v)
			}
		}
	case <-time.After(time.Second):
		t.Fatal("header exchange hung")
	}
}

// TestOversizedHeaderRejected bounds handshake memory.
func TestOversizedHeaderRejected(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errs := make(chan error, 1)
	go func() {
		_, err := readHeader(server)
		errs <- err
	}()
	// Claim a gigantic header size.
	client.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	select {
	case err := <-errs:
		if err == nil {
			t.Error("oversized header accepted")
		}
	case <-time.After(time.Second):
		t.Fatal("reader hung on oversized header")
	}
}

// TestFrameSizeBounds rejects absurd frame lengths before allocating.
func TestFrameSizeBounds(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	errs := make(chan error, 1)
	go func() {
		_, _, err := newFrameReader(server).Next()
		errs <- err
	}()
	// A well-formed header claiming a ~4 GiB payload — past every frame
	// cap (plain maxFrameSize and the shm-tagged 2 GiB ceiling alike):
	// the scanner must treat it as stream damage (scan past it) rather
	// than allocate.
	var hdr [wire.FrameHeaderSize]byte
	wire.PutFrameHeader(hdr[:], 0xffffffff, 0)
	client.Write(hdr[:])
	client.Close()
	select {
	case err := <-errs:
		if err == nil {
			t.Error("oversized frame length accepted")
		}
	case <-time.After(time.Second):
		t.Fatal("reader hung")
	}
}
