package ros

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// contractMsg is an SFM type with a registered field-wire map, so the
// contract matrix can drive every mask answer: "height"/"width" resolve,
// "tags" holds strings inside a sequence (a variable tail), anything
// else names no field.
type contractMsg struct {
	Height uint32
	Width  uint32
	Label  core.String
	Tags   core.Vector[contractTag]
}

type contractTag struct{ Name core.String }

func (*contractMsg) ROSMessageType() string { return "test_msgs/Contract" }
func (*contractMsg) ROSMD5Sum() string      { return "cccc0000cccc0000cccc0000cccc0000" }
func (*contractMsg) SFMMessage()            {}

func init() {
	err := fieldwire.Register("test_msgs/Contract", fieldwire.Map{Size: 24, Fields: []fieldwire.Node{
		{ID: 1, Name: "height", Off: 0, Len: 4, Kind: fieldwire.KScalar},
		{ID: 2, Name: "width", Off: 4, Len: 4, Kind: fieldwire.KScalar},
		{ID: 3, Name: "label", Off: 8, Len: 8, Kind: fieldwire.KString},
		{ID: 4, Name: "tags", Off: 16, Len: 8, Kind: fieldwire.KVector, ElemSize: 8,
			Elem: []fieldwire.Node{{Kind: fieldwire.KString, Len: 8}}},
	}})
	if err != nil {
		panic(err)
	}
}

const (
	contractSFMType  = "test_msgs/Endian"
	contractSFMMD5   = "aaaabbbbccccdddd0000111122223333"
	contractROS1Type = "test_msgs/PumpROS1"
	contractROS1MD5  = "0123456789abcdef0123456789abcdef"
	contractMaskType = "test_msgs/Contract"
	contractMaskMD5  = "cccc0000cccc0000cccc0000cccc0000"
)

// kv returns base plus the key/value pairs, as a fresh map.
func kv(base map[string]string, pairs ...string) map[string]string {
	out := make(map[string]string, len(base)+len(pairs)/2)
	for k, v := range base {
		out[k] = v
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		out[pairs[i]] = pairs[i+1]
	}
	return out
}

// sameHeader compares captured header bytes with wire.AppendHeader of
// the literal field set.
func sameHeader(t *testing.T, what string, got []byte, want map[string]string) {
	t.Helper()
	if ref := wire.AppendHeader(nil, want); !bytes.Equal(got, ref) {
		var fields map[string]string
		if len(got) >= 4 {
			fields, _ = wire.ParseHeader(got[4:])
		}
		t.Fatalf("%s header differs:\n got %v\nwant %v", what, fields, want)
	}
}

// contractRig serves every connection to its tap listener through the
// publisher node's own accept path (serveSubscriber), recording both
// header streams on the accept side. Dial sides reach it through the
// stock dialer code with only the address redirected, so shm offers
// stay on.
type contractRig struct {
	reg    *obs.Registry
	master *LocalMaster
	store  *shm.Store
	pub    *Node
	addr   string
	taps   chan *tapConn
}

func newContractRig(t *testing.T, withStore bool) *contractRig {
	t.Helper()
	r := &contractRig{reg: obs.NewRegistry(), master: NewLocalMaster(), taps: make(chan *tapConn, 16)}
	opts := []Option{WithMaster(r.master), WithMetrics(r.reg)}
	if withStore {
		store, err := shm.NewStore(shm.Options{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("NewStore: %v", err)
		}
		t.Cleanup(func() { store.Close() })
		r.store = store
		opts = append(opts, WithShmStore(store))
	}
	pub, err := NewNode("contract_pub", opts...)
	if err != nil {
		t.Fatal(err)
	}
	r.pub = pub
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			tc := &tapConn{Conn: c}
			select {
			case r.taps <- tc:
			default:
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				pub.serveSubscriber(tc)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		pub.Close()
		wg.Wait()
	})
	return r
}

// dialer returns a listener-less node whose dials all reach the rig. A
// shared node resolves services through the publisher's master; a
// private one has a master of its own, so no subscription dials by
// itself.
func (r *contractRig) dialer(t *testing.T, shared bool) *Node {
	t.Helper()
	var m Master = NewLocalMaster()
	if shared {
		m = r.master
	}
	n, err := NewNode("contract_sub", WithMaster(m), WithMetrics(obs.NewRegistry()), WithoutListener())
	if err != nil {
		t.Fatal(err)
	}
	n.dial = func(string) (net.Conn, error) { return net.Dial("tcp", r.addr) }
	t.Cleanup(func() { n.Close() })
	return n
}

// tap returns the accept side of the next connection.
func (r *contractRig) tap(t *testing.T) *tapConn {
	t.Helper()
	select {
	case tc := <-r.taps:
		return tc
	case <-time.After(5 * time.Second):
		t.Fatal("no connection reached the publisher")
		return nil
	}
}

// run drives one subscriber link (runOnce) until the test ends.
func (r *contractRig) run(t *testing.T, s *Subscriber) *tapConn {
	t.Helper()
	sc := newSubConn(r.addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.runOnce(r.addr, sc)
	}()
	t.Cleanup(func() {
		sc.close()
		<-done
	})
	return r.tap(t)
}

func (r *contractRig) endpoint(topic string) *pubEndpoint {
	r.pub.mu.Lock()
	defer r.pub.mu.Unlock()
	return r.pub.pubs[topic]
}

// attachedConn waits for the endpoint's one connection and reports
// whether it joined the shard pool.
func attachedConn(t *testing.T, ep *pubEndpoint) (*pubConn, bool) {
	t.Helper()
	waitFor(t, 5*time.Second, "the publisher to attach the link", func() bool { return ep.numSubscribers() == 1 })
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for pc := range ep.conns {
		return pc, false
	}
	if ep.pool != nil {
		for _, s := range ep.pool.shards {
			s.mu.Lock()
			members := s.members
			s.mu.Unlock()
			if len(members) > 0 {
				return members[0], true
			}
		}
	}
	t.Fatal("attached connection not found")
	return nil, false
}

// encoderOf is the frame encoder the connection's send loop runs.
func encoderOf(pc *pubConn) frameEncoder {
	b := newEgressBatch(pc)
	defer b.close()
	return b.enc
}

// contractImage is the SFM image of an endianMsg carrying height.
func contractImage(t *testing.T, height uint32) []byte {
	t.Helper()
	m, err := core.NewWithCapacity[endianMsg](4096)
	if err != nil {
		t.Fatal(err)
	}
	defer core.Release(m)
	m.Height, m.Width = height, 9
	m.Label.MustSet("contract")
	p, err := core.Bytes(m)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), p...)
}

// Advertise helpers: each returns a publish function.
type publishFunc func(t *testing.T, height uint32)

func advertiseSFM(t *testing.T, n *Node, topic string) publishFunc {
	pub, err := Advertise[endianMsg](n, topic, WithEgressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, h uint32) {
		m, err := core.NewWithCapacity[endianMsg](4096)
		if err != nil {
			t.Fatal(err)
		}
		m.Height, m.Width = h, 9
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		core.Release(m)
	}
}

func advertiseMask(t *testing.T, n *Node, topic string) publishFunc {
	pub, err := Advertise[contractMsg](n, topic, WithEgressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, h uint32) {
		m, err := core.NewWithCapacity[contractMsg](4096)
		if err != nil {
			t.Fatal(err)
		}
		m.Height, m.Width = h, 9
		m.Label.MustSet("unrequested")
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		core.Release(m)
	}
}

func advertiseROS1(t *testing.T, n *Node, topic string) publishFunc {
	pub, err := Advertise[pumpROS1Msg](n, topic, WithEgressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, h uint32) {
		if err := pub.Publish(&pumpROS1Msg{Height: h}); err != nil {
			t.Fatal(err)
		}
	}
}

func advertiseRawSFM(t *testing.T, n *Node, topic string) publishFunc {
	pub, err := AdvertiseRaw(n, topic, contractSFMType, contractSFMMD5, true, core.NativeLittleEndian(),
		WithEgressShards(1))
	if err != nil {
		t.Fatal(err)
	}
	return func(t *testing.T, h uint32) {
		if err := pub.PublishFrame(contractImage(t, h)); err != nil {
			t.Fatal(err)
		}
	}
}

// Subscribe helpers: each delivers the received height on got.
type subscribeFunc func(t *testing.T, n *Node, topic string, got chan<- uint32) *Subscriber

func subscribeSFM(mode TransportMode, fields ...string) subscribeFunc {
	return func(t *testing.T, n *Node, topic string, got chan<- uint32) *Subscriber {
		s, err := Subscribe(n, topic, func(m *endianMsg) { got <- m.Height },
			WithTransport(mode), WithFields(fields...))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// subscribeMask reports height 0 unless width, requested by every
// masked case, arrives intact.
func subscribeMask(mode TransportMode, fields ...string) subscribeFunc {
	return func(t *testing.T, n *Node, topic string, got chan<- uint32) *Subscriber {
		s, err := Subscribe(n, topic, func(m *contractMsg) {
			if m.Width != 9 {
				got <- 0
				return
			}
			got <- m.Height
		}, WithTransport(mode), WithFields(fields...))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func subscribeROS1(t *testing.T, n *Node, topic string, got chan<- uint32) *Subscriber {
	s, err := Subscribe(n, topic, func(m *pumpROS1Msg) { got <- m.Height }, WithTransport(TransportTCP))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConnectionContract pins every connection handshake byte for byte:
// the dial side's header and the accept side's reply are captured on
// the wire and compared with wire.AppendHeader of literal field sets.
// Each link also pins what the negotiation chose — the publisher's
// frame encoder and shard eligibility, and (through a delivered
// message with no corrupt frame) the subscriber's decoder — plus the
// decline and reject counters the negotiation feeds.
func TestConnectionContract(t *testing.T) {
	native := nativeEndianName(core.NativeLittleEndian())
	const topic = "contract/topic"
	subReq := func(typ, md5, format string, pairs ...string) map[string]string {
		return kv(map[string]string{hdrTopic: topic, hdrType: typ, hdrMD5: md5,
			hdrCallerID: "contract_sub", hdrFormat: format, hdrEndian: native}, pairs...)
	}
	pubReply := func(typ, md5, format string, pairs ...string) map[string]string {
		return kv(map[string]string{hdrType: typ, hdrMD5: md5, hdrCallerID: "contract_pub",
			hdrFormat: format, hdrEndian: native, hdrTransport: wire.TransportNameTCP}, pairs...)
	}
	shmOffer := []string{hdrTransports, "shm,tcp", hdrPID, strconv.Itoa(os.Getpid()), hdrBootID, shm.BootID()}
	sfmReq := subReq(contractSFMType, contractSFMMD5, formatSFM)
	sfmReply := pubReply(contractSFMType, contractSFMMD5, formatSFM)
	maskReq := subReq(contractMaskType, contractMaskMD5, formatSFM)
	maskReply := pubReply(contractMaskType, contractMaskMD5, formatSFM)

	type counts struct {
		shmFallbacks, remotePeer      uint64
		masked, rejects, noMap, unmap uint64
		varTail                       uint64
	}
	countsOf := func(reg *obs.Registry) counts {
		st, fw := reg.Shm(), reg.Fieldwire()
		return counts{st.Fallbacks.Load(), st.FallbackRemotePeer.Load(),
			fw.MaskedSubscriptions.Load(), fw.MaskRejects.Load(), fw.RejectNoMap.Load(),
			fw.RejectUnmappable.Load(), fw.RejectVarTail.Load()}
	}

	type linkCase struct {
		name    string
		store   bool // the publisher node holds an shm store
		shm     bool // needs the shared-memory transport (offers or grants)
		adv     func(*testing.T, *Node, string) publishFunc
		sub     subscribeFunc
		req     map[string]string
		reply   map[string]string // a grant's fields are added from the live link
		grant   bool
		enc     frameEncoder
		sharded bool
		counts  counts
	}
	cases := []linkCase{
		{name: "ros1", adv: advertiseROS1, sub: subscribeROS1,
			req:   subReq(contractROS1Type, contractROS1MD5, formatROS1),
			reply: pubReply(contractROS1Type, contractROS1MD5, formatROS1),
			enc:   encodePlain, sharded: true},
		{name: "sfm", adv: advertiseSFM, sub: subscribeSFM(TransportTCP),
			req: sfmReq, reply: sfmReply, enc: encodePlain, sharded: true},
		{name: "shm/granted", store: true, shm: true, adv: advertiseSFM, sub: subscribeSFM(TransportShm),
			req: kv(sfmReq, shmOffer...), reply: sfmReply, grant: true, enc: encodeTagged},
		{name: "shm/declined-no-store", shm: true, adv: advertiseSFM, sub: subscribeSFM(TransportShm),
			req: kv(sfmReq, shmOffer...), reply: sfmReply, enc: encodePlain, sharded: true},
		{name: "shm/declined-raw-publisher", store: true, shm: true, adv: advertiseRawSFM,
			sub: subscribeSFM(TransportShm), req: kv(sfmReq, shmOffer...), reply: sfmReply,
			enc: encodePlain, sharded: true},
		{name: "mask/accepted", adv: advertiseMask, sub: subscribeMask(TransportTCP, "height", "width"),
			req:   kv(maskReq, hdrFields, "height,width"),
			reply: kv(maskReply, hdrFieldwire, fieldwireV1),
			enc:   encodeSparse, counts: counts{masked: 1}},
		{name: "mask/rejected-no-map", adv: advertiseSFM, sub: subscribeSFM(TransportTCP, "height"),
			req:   kv(sfmReq, hdrFields, "height"),
			reply: kv(sfmReply, hdrFieldwireReject, fieldwire.ReasonNoMap),
			enc:   encodePlain, sharded: true, counts: counts{rejects: 1, noMap: 1}},
		{name: "mask/rejected-unmappable", adv: advertiseMask, sub: subscribeMask(TransportTCP, "height", "nosuch"),
			req:   kv(maskReq, hdrFields, "height,nosuch"),
			reply: kv(maskReply, hdrFieldwireReject, fieldwire.ReasonUnmappable),
			enc:   encodePlain, sharded: true, counts: counts{rejects: 1, unmap: 1}},
		{name: "mask/rejected-variable-tail", adv: advertiseMask, sub: subscribeMask(TransportTCP, "tags"),
			req:   kv(maskReq, hdrFields, "tags"),
			reply: kv(maskReply, hdrFieldwireReject, fieldwire.ReasonVarTail),
			enc:   encodePlain, sharded: true, counts: counts{rejects: 1, varTail: 1}},
		{name: "shm/outranks-mask", store: true, shm: true, adv: advertiseMask,
			sub:   subscribeMask(TransportShm, "height", "width"),
			req:   kv(maskReq, append([]string{hdrFields, "height,width"}, shmOffer...)...),
			reply: maskReply, grant: true, enc: encodeTagged},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.shm && !shm.Available() {
				t.Skip("shared-memory transport unavailable on this platform")
			}
			r := newContractRig(t, c.store)
			publish := c.adv(t, r.pub, topic)
			got := make(chan uint32, 4)
			s := c.sub(t, r.dialer(t, false), topic, got)
			tap := r.run(t, s)
			pc, sharded := attachedConn(t, r.endpoint(topic))
			req, reply := tap.headers()
			want := c.reply
			if c.grant {
				if pc.shm == nil {
					t.Fatal("link holds no shm grant")
				}
				want = kv(want, hdrTransport, wire.TransportNameShm,
					hdrShmPrefix, r.store.Prefix(),
					hdrShmPeer, strconv.Itoa(pc.shm.peer),
					hdrShmLeaseMS, strconv.FormatInt(r.store.LeaseTimeout().Milliseconds(), 10),
					hdrShmGen, strconv.FormatUint(uint64(pc.shm.gen), 10))
			}
			sameHeader(t, "request", req, c.req)
			sameHeader(t, "reply", reply, want)
			if enc := encoderOf(pc); enc != c.enc {
				t.Errorf("encoder = %d, want %d", enc, c.enc)
			}
			if sharded != c.sharded {
				t.Errorf("sharded = %v, want %v", sharded, c.sharded)
			}
			publish(t, 7)
			select {
			case h := <-got:
				if h != 7 {
					t.Errorf("delivered height %d, want 7 (decoder does not match the encoder)", h)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no message delivered over the negotiated link")
			}
			if n := s.CorruptFrames(); n != 0 {
				t.Errorf("%d corrupt frames on the negotiated link", n)
			}
			if got := countsOf(r.reg); got != c.counts {
				t.Errorf("publisher counters = %+v, want %+v", got, c.counts)
			}
		})
	}

	// A subscriber from another boot offers shm with its own boot id:
	// the publisher declines and counts a remote peer. The request is
	// hand-written, as this process cannot present a foreign boot id.
	t.Run("shm/declined-foreign-boot", func(t *testing.T) {
		if !shm.Available() {
			t.Skip("shared-memory transport unavailable on this platform")
		}
		r := newContractRig(t, true)
		advertiseSFM(t, r.pub, topic)
		conn, err := net.Dial("tcp", r.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		req := kv(sfmReq, hdrTransports, "shm,tcp", hdrPID, "4242", hdrBootID, "another-boot")
		if err := writeHeader(conn, req); err != nil {
			t.Fatal(err)
		}
		if _, err := readHeader(conn); err != nil {
			t.Fatal(err)
		}
		tap := r.tap(t)
		pc, sharded := attachedConn(t, r.endpoint(topic))
		gotReq, gotReply := tap.headers()
		sameHeader(t, "request", gotReq, req)
		sameHeader(t, "reply", gotReply, sfmReply)
		if enc := encoderOf(pc); enc != encodePlain || !sharded {
			t.Errorf("encoder %d sharded %v, want plain and sharded", enc, sharded)
		}
		if got := countsOf(r.reg); got != (counts{shmFallbacks: 1, remotePeer: 1}) {
			t.Errorf("publisher counters = %+v, want one remote-peer fallback", got)
		}
	})

	t.Run("drain", func(t *testing.T) {
		r := newContractRig(t, false)
		publish := advertiseSFM(t, r.pub, topic)
		conn, err := DialDrain(r.addr, topic, contractSFMType, contractSFMMD5, "contract_drain", true)
		if err != nil {
			t.Fatalf("DialDrain: %v", err)
		}
		defer conn.Close()
		tap := r.tap(t)
		pc, sharded := attachedConn(t, r.endpoint(topic))
		req, reply := tap.headers()
		sameHeader(t, "request", req, kv(sfmReq, hdrCallerID, "contract_drain"))
		sameHeader(t, "reply", reply, sfmReply)
		if enc := encoderOf(pc); enc != encodePlain || !sharded {
			t.Errorf("encoder %d sharded %v, want plain and sharded", enc, sharded)
		}
		publish(t, 7)
		if err := DrainFrames(conn, 1, nil); err != nil {
			t.Fatalf("DrainFrames: %v", err)
		}
	})

	for _, sfm := range []bool{false, true} {
		typ, md5, format := contractROS1Type, contractROS1MD5, formatROS1
		if sfm {
			typ, md5, format = contractSFMType, contractSFMMD5, formatSFM
		}
		t.Run("service/"+format, func(t *testing.T) {
			r := newContractRig(t, false)
			const name = "contract/svc"
			var call func(n *Node) (uint32, error)
			if sfm {
				if _, err := AdvertiseService(r.pub, name, sfmPlusOne); err != nil {
					t.Fatal(err)
				}
				call = func(n *Node) (uint32, error) {
					c, err := NewServiceClient[endianMsg, endianMsg](n, name)
					if err != nil {
						return 0, err
					}
					defer c.Close()
					req, err := core.NewWithCapacity[endianMsg](4096)
					if err != nil {
						return 0, err
					}
					defer core.Release(req)
					req.Height = 6
					resp, err := c.Call(req)
					if err != nil {
						return 0, err
					}
					defer core.Release(resp)
					return resp.Height, nil
				}
			} else {
				if _, err := AdvertiseService(r.pub, name, ros1PlusOne); err != nil {
					t.Fatal(err)
				}
				call = func(n *Node) (uint32, error) {
					resp, err := CallService[pumpROS1Msg, pumpROS1Msg](n, name, &pumpROS1Msg{Height: 6})
					if err != nil {
						return 0, err
					}
					return resp.Height, nil
				}
			}
			h, err := call(r.dialer(t, true))
			if err != nil || h != 7 {
				t.Fatalf("call = %d, %v; want 7", h, err)
			}
			req, reply := r.tap(t).headers()
			sameHeader(t, "request", req, map[string]string{hdrService: name, hdrReqType: typ,
				hdrRspType: typ, hdrMD5: md5 + md5, hdrCallerID: "contract_sub",
				hdrFormat: format, hdrEndian: native})
			sameHeader(t, "reply", reply, map[string]string{hdrCallerID: "contract_pub",
				hdrMD5: md5 + md5, hdrFormat: format, hdrEndian: native})
		})
	}

	// Rejections: the accept side answers with a lone error field, and
	// the dial side reports a permanent refusal.
	type rejectCase struct {
		name string
		// dial performs the dial side and reports its error.
		dial func(t *testing.T, r *contractRig) error
		req  map[string]string
		msg  string
	}
	subscribeRaw := func(topic, typ, md5 string, sfm bool) func(*testing.T, *contractRig) error {
		return func(t *testing.T, r *contractRig) error {
			s, err := SubscribeRaw(r.dialer(t, false), topic, typ, md5, sfm, func(RawMessage) {})
			if err != nil {
				t.Fatal(err)
			}
			connected, permanent := s.runOnce(r.addr, newSubConn(r.addr))
			if connected || !permanent {
				t.Errorf("runOnce = connected %v permanent %v, want a permanent refusal", connected, permanent)
			}
			return ErrHandshake
		}
	}
	svcReq := func(name, typ, md5, format string) map[string]string {
		return map[string]string{hdrService: name, hdrReqType: typ, hdrRspType: typ, hdrMD5: md5,
			hdrCallerID: "contract_sub", hdrFormat: format, hdrEndian: native}
	}
	handDial := func(req map[string]string) func(*testing.T, *contractRig) error {
		return func(t *testing.T, r *contractRig) error {
			conn, err := net.Dial("tcp", r.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeHeader(conn, req); err != nil {
				t.Fatal(err)
			}
			reply, err := readHeader(conn)
			if err != nil {
				t.Fatal(err)
			}
			if _, bad := reply[hdrError]; bad {
				return ErrHandshake
			}
			return nil
		}
	}
	const svc = "contract/svc"
	sfmSvcMD5 := contractSFMMD5 + contractSFMMD5
	rejects := []rejectCase{
		{name: "topic-type", dial: subscribeRaw(topic, contractROS1Type, contractROS1MD5, false),
			req: subReq(contractROS1Type, contractROS1MD5, formatROS1),
			msg: fmt.Sprintf("topic %q is %s, subscriber wants %s", topic, contractSFMType, contractROS1Type)},
		{name: "topic-md5", dial: subscribeRaw(topic, contractSFMType, "ffffffffffffffffffffffffffffffff", true),
			req: subReq(contractSFMType, "ffffffffffffffffffffffffffffffff", formatSFM),
			msg: fmt.Sprintf("md5 mismatch on %q: %s vs %s", topic, contractSFMMD5, "ffffffffffffffffffffffffffffffff")},
		{name: "topic-format", dial: subscribeRaw(topic, contractSFMType, contractSFMMD5, false),
			req: subReq(contractSFMType, contractSFMMD5, formatROS1),
			msg: fmt.Sprintf("format mismatch on %q: publisher %s, subscriber %s", topic, formatSFM, formatROS1)},
		{name: "unknown-topic", dial: subscribeRaw("contract/none", contractSFMType, contractSFMMD5, true),
			req: kv(subReq(contractSFMType, contractSFMMD5, formatSFM), hdrTopic, "contract/none"),
			msg: fmt.Sprintf("node contract_pub does not publish topic %q", "contract/none")},
		{name: "service-type", dial: func(t *testing.T, r *contractRig) error {
			_, err := NewServiceClient[pumpROS1Msg, pumpROS1Msg](r.dialer(t, true), svc)
			return err
		},
			req: svcReq(svc, contractROS1Type, contractROS1MD5+contractROS1MD5, formatROS1),
			msg: fmt.Sprintf("service %q is %s->%s", svc, contractSFMType, contractSFMType)},
		{name: "service-md5", dial: handDial(svcReq(svc, contractSFMType, "bad", formatSFM)),
			req: svcReq(svc, contractSFMType, "bad", formatSFM),
			msg: fmt.Sprintf("md5 mismatch on service %q", svc)},
		{name: "service-format", dial: handDial(svcReq(svc, contractSFMType, sfmSvcMD5, formatROS1)),
			req: svcReq(svc, contractSFMType, sfmSvcMD5, formatROS1),
			msg: fmt.Sprintf("format mismatch on service %q", svc)},
		{name: "unknown-service", dial: func(t *testing.T, r *contractRig) error {
			_, err := NewServiceClient[endianMsg, endianMsg](r.dialer(t, true), "contract/ghost")
			return err
		},
			req: svcReq("contract/ghost", contractSFMType, sfmSvcMD5, formatSFM),
			msg: fmt.Sprintf("node contract_pub does not serve %q", "contract/ghost")},
	}
	for _, c := range rejects {
		t.Run("reject/"+c.name, func(t *testing.T) {
			r := newContractRig(t, false)
			advertiseSFM(t, r.pub, topic)
			if _, err := AdvertiseService(r.pub, svc, sfmPlusOne); err != nil {
				t.Fatal(err)
			}
			if _, err := r.master.RegisterService("contract/ghost", ServiceInfo{NodeName: "ghost",
				Addr: r.addr, ReqType: contractSFMType, RespType: contractSFMType, MD5: sfmSvcMD5}); err != nil {
				t.Fatal(err)
			}
			if err := c.dial(t, r); !errors.Is(err, ErrHandshake) {
				t.Errorf("dial error = %v, want a handshake refusal", err)
			}
			tap := r.tap(t)
			var req, reply []byte
			waitFor(t, 5*time.Second, "the refusal on record", func() bool {
				req, reply = tap.headers()
				return reply != nil
			})
			sameHeader(t, "request", req, c.req)
			sameHeader(t, "reply", reply, map[string]string{hdrError: c.msg})
		})
	}
}

// sfmPlusOne and ros1PlusOne are the contract services: the response
// carries the request's height plus one.
func sfmPlusOne(req *endianMsg) (*endianMsg, error) {
	resp, err := core.NewWithCapacity[endianMsg](4096)
	if err != nil {
		return nil, err
	}
	resp.Height, resp.Width = req.Height+1, req.Width
	return resp, nil
}

func ros1PlusOne(req *pumpROS1Msg) (*pumpROS1Msg, error) {
	return &pumpROS1Msg{Height: req.Height + 1}, nil
}

// readStatusFrame reads one service answer: the status byte, then a
// checked frame whose checksum must hold.
func readStatusFrame(t *testing.T, conn net.Conn) (byte, []byte) {
	t.Helper()
	var hdr [1 + wire.FrameHeaderSize]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("status frame: %v", err)
	}
	if binary.LittleEndian.Uint32(hdr[1:5]) != wire.FrameMagic {
		t.Fatal("status frame: bad magic")
	}
	p := make([]byte, binary.LittleEndian.Uint32(hdr[5:9]))
	if _, err := io.ReadFull(conn, p); err != nil {
		t.Fatalf("status frame payload: %v", err)
	}
	if wire.Checksum(p) != binary.LittleEndian.Uint32(hdr[9:13]) {
		t.Fatal("status frame: checksum mismatch")
	}
	return hdr[0], p
}

// TestServiceFrameContract pins the service frame path of both regimes
// on both ends. The server cells drive the real request loop with a
// hand-speaking client: a valid request, a damaged request answered
// with status 0 on a connection that then serves the next call, and a
// request declared in the foreign byte order. The client cells drive
// the real ServiceClient against a hand-speaking server: valid and
// damaged replies and error replies.
func TestServiceFrameContract(t *testing.T) {
	native := nativeEndianName(core.NativeLittleEndian())
	foreign := endianBig
	if !core.NativeLittleEndian() {
		foreign = endianLittle
	}
	for _, sfm := range []bool{false, true} {
		typ, md5, format := contractROS1Type, contractROS1MD5, formatROS1
		if sfm {
			typ, md5, format = contractSFMType, contractSFMMD5, formatSFM
		}
		// body encodes a request carrying height in the given order;
		// height reads a response.
		body := func(t *testing.T, height uint32, little bool) []byte {
			if !sfm {
				return binary.LittleEndian.AppendUint32(nil, height)
			}
			img := contractImage(t, height)
			if little != core.NativeLittleEndian() {
				layout, err := core.LayoutOf[endianMsg]()
				if err != nil {
					t.Fatal(err)
				}
				if err := core.ForeignizeEndianness(img, layout); err != nil {
					t.Fatal(err)
				}
			}
			return img
		}
		height := func(p []byte) uint32 {
			if !sfm {
				return binary.LittleEndian.Uint32(p)
			}
			return binary.NativeEndian.Uint32(p)
		}
		hello := map[string]string{hdrService: "contract/svc", hdrReqType: typ, hdrRspType: typ,
			hdrMD5: md5 + md5, hdrCallerID: "contract_client", hdrFormat: format}

		t.Run(format+"/server", func(t *testing.T) {
			r := newContractRig(t, false)
			var err error
			if sfm {
				_, err = AdvertiseService(r.pub, "contract/svc", sfmPlusOne)
			} else {
				_, err = AdvertiseService(r.pub, "contract/svc", ros1PlusOne)
			}
			if err != nil {
				t.Fatal(err)
			}
			dial := func(t *testing.T, endian string) net.Conn {
				conn, err := net.Dial("tcp", r.addr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				if err := writeHeader(conn, kv(hello, hdrEndian, endian)); err != nil {
					t.Fatal(err)
				}
				reply, err := readHeader(conn)
				if err != nil || reply[hdrError] != "" {
					t.Fatalf("handshake: %v %v", reply, err)
				}
				return conn
			}
			call := func(t *testing.T, conn net.Conn, req []byte, damage bool) (byte, []byte) {
				if _, err := conn.Write(pumpFrame(nil, req, damage)); err != nil {
					t.Fatal(err)
				}
				return readStatusFrame(t, conn)
			}
			little := core.NativeLittleEndian()

			t.Run("valid", func(t *testing.T) {
				conn := dial(t, native)
				if st, p := call(t, conn, body(t, 6, little), false); st != 1 || height(p) != 7 {
					t.Fatalf("status %d height %d, want 1 and 7", st, height(p))
				}
			})
			t.Run("damaged-request", func(t *testing.T) {
				conn := dial(t, native)
				st, p := call(t, conn, body(t, 6, little), true)
				if st != 0 || string(p) != "corrupt request frame" {
					t.Fatalf("status %d %q, want 0 and the corrupt-request error", st, p)
				}
				// The connection stays live: the next call is served.
				if st, p := call(t, conn, body(t, 8, little), false); st != 1 || height(p) != 9 {
					t.Fatalf("follow-up status %d height %d, want 1 and 9", st, height(p))
				}
			})
			t.Run("foreign-endian", func(t *testing.T) {
				conn := dial(t, foreign)
				if st, p := call(t, conn, body(t, 6, !little), false); st != 1 || height(p) != 7 {
					t.Fatalf("status %d height %d, want 1 and 7", st, height(p))
				}
			})
		})

		// The client cells: a fake server answers the handshake, reads
		// one request and answers with the cell's status and frame.
		type clientCell struct {
			name    string
			status  byte
			payload []byte
			damage  bool
			check   func(t *testing.T, h uint32, err error)
		}
		cells := []clientCell{
			{name: "valid-reply", status: 1, payload: body(t, 7, core.NativeLittleEndian()),
				check: func(t *testing.T, h uint32, err error) {
					if err != nil || h != 7 {
						t.Fatalf("call = %d, %v; want 7", h, err)
					}
				}},
			{name: "error-reply", status: 0, payload: []byte("boom"),
				check: func(t *testing.T, _ uint32, err error) {
					var se *ServiceError
					if !errors.As(err, &se) || se.Msg != "boom" {
						t.Fatalf("err = %v, want ServiceError(boom)", err)
					}
				}},
			{name: "damaged-reply", status: 1, payload: body(t, 7, core.NativeLittleEndian()), damage: true,
				check: func(t *testing.T, _ uint32, err error) {
					if !errors.Is(err, wire.ErrCorruptFrame) {
						t.Fatalf("err = %v, want a corrupt-frame error", err)
					}
				}},
			{name: "damaged-error-reply", status: 0, payload: []byte("boom"), damage: true,
				check: func(t *testing.T, _ uint32, err error) {
					var se *ServiceError
					if !errors.Is(err, wire.ErrCorruptFrame) || errors.As(err, &se) {
						t.Fatalf("err = %v, want a corrupt-frame error", err)
					}
				}},
		}
		for _, cell := range cells {
			t.Run(format+"/client/"+cell.name, func(t *testing.T) {
				m := NewLocalMaster()
				if _, err := m.RegisterService("contract/svc", ServiceInfo{NodeName: "fake", Addr: "fake",
					ReqType: typ, RespType: typ, MD5: md5 + md5}); err != nil {
					t.Fatal(err)
				}
				n, err := NewNode("contract_client", WithMaster(m), WithoutListener())
				if err != nil {
					t.Fatal(err)
				}
				defer n.Close()
				var wg sync.WaitGroup
				defer wg.Wait()
				n.dial = func(string) (net.Conn, error) {
					cli, srv := net.Pipe()
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer srv.Close()
						if _, err := readHeader(srv); err != nil {
							return
						}
						if writeHeader(srv, map[string]string{hdrCallerID: "fake", hdrMD5: md5 + md5,
							hdrFormat: format, hdrEndian: native}) != nil {
							return
						}
						var hdr [wire.FrameHeaderSize]byte
						if _, err := io.ReadFull(srv, hdr[:]); err != nil {
							return
						}
						if _, err := io.CopyN(io.Discard, srv, int64(binary.LittleEndian.Uint32(hdr[4:8]))); err != nil {
							return
						}
						srv.Write(append([]byte{cell.status}, pumpFrame(nil, cell.payload, cell.damage)...))
						io.Copy(io.Discard, srv) // until the client hangs up
					}()
					return cli, nil
				}
				var h uint32
				if sfm {
					c, err := NewServiceClient[endianMsg, endianMsg](n, "contract/svc")
					if err != nil {
						t.Fatal(err)
					}
					req, err := core.NewWithCapacity[endianMsg](4096)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := c.Call(req)
					core.Release(req)
					if err == nil {
						h = resp.Height
						core.Release(resp)
					}
					c.Close()
					cell.check(t, h, err)
				} else {
					resp, err := CallService[pumpROS1Msg, pumpROS1Msg](n, "contract/svc", &pumpROS1Msg{})
					if err == nil {
						h = resp.Height
					}
					cell.check(t, h, err)
				}
			})
		}
	}
}

// FuzzAcceptHeader feeds arbitrary header bodies — field sets aimed at
// a topic endpoint or a service endpoint — to the accept path over
// net.Pipe. Whatever arrives, the accept side must not panic; it
// answers a parseable header with either a lone error field or its
// identity fields, and a malformed one with nothing; it grants shm only
// to a transports offer carrying this machine's boot id; and every
// peer lease a grant takes is retired once the connection drops.
func FuzzAcceptHeader(f *testing.F) {
	topicReq := map[string]string{hdrTopic: "fuzz/topic", hdrType: contractMaskType, hdrMD5: contractMaskMD5,
		hdrCallerID: "fuzz", hdrFormat: formatSFM, hdrEndian: endianLittle}
	svcReq := map[string]string{hdrService: "fuzz/svc", hdrReqType: contractSFMType, hdrRspType: contractSFMType,
		hdrMD5: contractSFMMD5 + contractSFMMD5, hdrCallerID: "fuzz", hdrFormat: formatSFM, hdrEndian: endianBig}
	for _, h := range []map[string]string{
		topicReq,
		kv(topicReq, hdrTransports, "shm,tcp", hdrPID, "1", hdrBootID, shm.BootID()),
		kv(topicReq, hdrTransports, "tcp,shm", hdrBootID, shm.BootID(), hdrFields, "height,width"),
		kv(topicReq, hdrTransports, "shm", hdrBootID, "elsewhere", hdrFields, "tags"),
		kv(topicReq, hdrFields, ",,height"),
		kv(topicReq, hdrFormat, formatROS1),
		kv(topicReq, hdrTopic, "fuzz/none"),
		svcReq,
		kv(svcReq, hdrMD5, "x"),
		kv(svcReq, hdrService, ""),
		{},
	} {
		f.Add(wire.AppendHeader(nil, h)[4:])
	}
	f.Add([]byte{3, 0, 0, 0, 'a', '=', 'b', 9})

	var store *shm.Store
	opts := []Option{WithMaster(NewLocalMaster()), WithMetrics(obs.NewRegistry())}
	if shm.Available() {
		var err error
		if store, err = shm.NewStore(shm.Options{Dir: f.TempDir()}); err != nil {
			f.Fatalf("NewStore: %v", err)
		}
		f.Cleanup(func() { store.Close() })
		opts = append(opts, WithShmStore(store))
	}
	node, err := NewNode("fuzz_pub", opts...)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { node.Close() })
	pub, err := Advertise[contractMsg](node, "fuzz/topic", WithEgressShards(-1))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := AdvertiseService(node, "fuzz/svc", sfmPlusOne); err != nil {
		f.Fatal(err)
	}
	leases := func() int {
		if store == nil {
			return 0
		}
		return store.ActivePeers()
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		base := leases()
		srv, cli := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			node.serveSubscriber(srv)
		}()
		cli.SetDeadline(time.Now().Add(5 * time.Second))
		// A side that refuses the length prefix closes the pipe, which
		// fails this write and the read below alike.
		go cli.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...))
		reply, rerr := readHeader(cli)
		req, perr := wire.ParseHeader(body)
		switch {
		case perr != nil || len(body) > maxHeaderSize:
			if rerr == nil {
				t.Fatalf("malformed header answered with %v", reply)
			}
		case rerr != nil:
			t.Fatalf("no reply to a well-formed header %v: %v", req, rerr)
		case reply[hdrError] != "":
			if len(reply) != 1 {
				t.Fatalf("refusal carries more than the error: %v", reply)
			}
		default:
			for _, k := range []string{hdrMD5, hdrCallerID, hdrFormat, hdrEndian} {
				if reply[k] == "" {
					t.Fatalf("reply %v lacks identity field %q", reply, k)
				}
			}
		}
		granted := reply[hdrTransport] == wire.TransportNameShm
		if granted && (!wire.OffersTransport(req[hdrTransports], wire.TransportNameShm) || req[hdrBootID] != shm.BootID()) {
			t.Fatalf("shm granted to %v", req)
		}
		if want := base; leases() != want+boolInt(granted) {
			t.Fatalf("active leases %d after the handshake, want %d", leases(), want+boolInt(granted))
		}
		cli.Close()
		<-served
		// A publish makes any attached connection notice the drop; its
		// teardown retires the lease.
		m, err := core.NewWithCapacity[contractMsg](4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Publish(m); err != nil {
			t.Fatal(err)
		}
		core.Release(m)
		waitFor(t, 5*time.Second, "the dropped link to release its lease", func() bool {
			return leases() == base && pub.NumSubscribers() == 0
		})
	})
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
