package ros

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rossf/internal/core"
	"rossf/internal/obs"
	"rossf/internal/wire"
)

// Services are the request/response half of the middleware, analogous
// to rosservice. A service connection shares the node's topic listener:
// the connection header carries a "service" key instead of "topic",
// then the client streams request frames and the server answers each
// with a 1-byte status (1 = ok, 0 = error string follows) plus the
// response frame, as in ROS1's service protocol. Both regimes work:
// serialization-free requests and responses travel as arena bytes.

const (
	hdrService = "service"
	hdrReqType = "request_type"
	hdrRspType = "response_type"
)

// ErrServiceNotFound reports an unresolvable service name.
var ErrServiceNotFound = errors.New("ros: service not found")

// ServiceError is a handler-reported failure delivered to the caller.
type ServiceError struct {
	Service string
	Msg     string
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("ros: service %q failed: %s", e.Service, e.Msg)
}

// ServiceServer is a registered service. Close withdraws it.
type ServiceServer struct {
	ep *serviceEndpoint
}

// Close unregisters the service and disconnects callers.
func (s *ServiceServer) Close() { s.ep.close() }

// Name returns the service name.
func (s *ServiceServer) Name() string { return s.ep.name }

// serviceEndpoint is the type-erased per-service server state.
type serviceEndpoint struct {
	node       *Node
	name       string
	reqType    string
	respType   string
	md5        string
	sfm        bool
	handle     func(reqFrame []byte, srcLittle bool) (respFrame []byte, release func(), err error)
	unregister func()
	stats      *obs.ServiceStats // nil when the node's metrics are disabled

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// AdvertiseService registers a handler under a service name — the
// analog of NodeHandle::advertiseService. Req and Resp must both be
// generated message types of the same regime (both regular or both
// serialization-free).
//
// For serialization-free types the handler's request is the received
// buffer adopted in place and is released when the handler returns; the
// handler must build its response with core.New (the server releases it
// after transmission).
func AdvertiseService[Req, Resp any](n *Node, name string,
	handler func(*Req) (*Resp, error)) (*ServiceServer, error) {
	reqType, reqMD5, ok := typeInfoOf[Req]()
	if !ok {
		return nil, fmt.Errorf("ros: request type %T is not a message", new(Req))
	}
	respType, respMD5, ok := typeInfoOf[Resp]()
	if !ok {
		return nil, fmt.Errorf("ros: response type %T is not a message", new(Resp))
	}
	reqSFM, respSFM := isSFMType[Req](), isSFMType[Resp]()
	if reqSFM != respSFM {
		return nil, fmt.Errorf("ros: request and response must share a wire regime")
	}
	if n.addr == "" {
		return nil, errors.New("ros: serving requires a node listener")
	}

	ep := &serviceEndpoint{
		node:     n,
		name:     name,
		reqType:  reqType,
		respType: respType,
		md5:      reqMD5 + respMD5,
		sfm:      reqSFM,
		stats:    n.metrics.Service(name),
		conns:    make(map[net.Conn]struct{}),
	}
	if reqSFM {
		layout, err := core.LayoutOf[Req]()
		if err != nil {
			return nil, err
		}
		ep.handle = sfmServiceHandler(handler, layout)
	} else {
		if !isSerializableType[Req]() || !isSerializableType[Resp]() {
			return nil, fmt.Errorf("ros: service types must be Serializable or SFM")
		}
		ep.handle = regularServiceHandler(handler)
	}

	if err := n.registerService(name, ep); err != nil {
		return nil, err
	}
	unregister, err := n.master.RegisterService(name, ServiceInfo{
		NodeName: n.name, Addr: n.addr,
		ReqType: reqType, RespType: respType, MD5: ep.md5,
	})
	if err != nil {
		n.unregisterService(name)
		return nil, err
	}
	ep.unregister = unregister
	return &ServiceServer{ep: ep}, nil
}

// regularServiceHandler wraps a handler over the ROS1 pipeline.
func regularServiceHandler[Req, Resp any](handler func(*Req) (*Resp, error)) func([]byte, bool) ([]byte, func(), error) {
	return func(reqFrame []byte, _ bool) ([]byte, func(), error) {
		req := new(Req)
		s, _ := any(req).(Serializable)
		if err := s.DeserializeROS(wire.NewReader(reqFrame)); err != nil {
			return nil, nil, fmt.Errorf("malformed request: %v", err)
		}
		resp, err := handler(req)
		if err != nil {
			return nil, nil, err
		}
		rs, ok := any(resp).(Serializable)
		if !ok || resp == nil {
			return nil, nil, errors.New("handler returned no response")
		}
		w := wire.NewWriter(rs.SerializedSizeROS())
		if err := rs.SerializeROS(w); err != nil {
			return nil, nil, err
		}
		return w.Bytes(), nil, nil
	}
}

// sfmServiceHandler wraps a handler over the serialization-free
// pipeline: the request buffer is adopted, the response's arena bytes
// are the reply frame.
func sfmServiceHandler[Req, Resp any](handler func(*Req) (*Resp, error), layout *core.Layout) func([]byte, bool) ([]byte, func(), error) {
	return func(reqFrame []byte, srcLittle bool) ([]byte, func(), error) {
		buf := core.Default().GetBuffer(len(reqFrame))
		copy(buf.Bytes(), reqFrame)
		if err := core.ConvertEndianness(buf.Bytes()[:len(reqFrame)], layout, srcLittle); err != nil {
			buf.Discard()
			return nil, nil, err
		}
		req, err := core.Adopt[Req](buf, len(reqFrame))
		if err != nil {
			buf.Discard()
			return nil, nil, err
		}
		resp, err := handler(req)
		core.Release(req)
		if err != nil {
			return nil, nil, err
		}
		if resp == nil {
			return nil, nil, errors.New("handler returned no response")
		}
		frame, err := core.Bytes(resp)
		if err != nil {
			return nil, nil, err
		}
		release := func() { core.Release(resp) }
		return frame, release, nil
	}
}

// writeStatusFrame sends a call's 1-byte status together with its
// response (or error-string) frame as one vectored write: the caller
// can never observe a status byte whose frame was cut off between two
// syscalls, and the common case costs one syscall instead of three.
func writeStatusFrame(conn net.Conn, status byte, payload []byte) error {
	var hdr [1 + wire.FrameHeaderSize]byte
	hdr[0] = status
	wire.PutFrameHeader(hdr[1:], len(payload), wire.Checksum(payload))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(conn)
	return err
}

// serveCall runs the per-connection request loop.
func (ep *serviceEndpoint) serveCall(conn net.Conn, req map[string]string) error {
	fail := func(msg string) error {
		writeHeader(conn, map[string]string{hdrError: msg})
		return fmt.Errorf("%w: %s", ErrHandshake, msg)
	}
	if req[hdrReqType] != ep.reqType || req[hdrRspType] != ep.respType {
		return fail(fmt.Sprintf("service %q is %s->%s", ep.name, ep.reqType, ep.respType))
	}
	if req[hdrMD5] != ep.md5 {
		return fail(fmt.Sprintf("md5 mismatch on service %q", ep.name))
	}
	wantFormat := formatROS1
	if ep.sfm {
		wantFormat = formatSFM
	}
	if req[hdrFormat] != wantFormat {
		return fail(fmt.Sprintf("format mismatch on service %q", ep.name))
	}
	err := writeHeader(conn, map[string]string{
		hdrCallerID: ep.node.name,
		hdrMD5:      ep.md5,
		hdrFormat:   wantFormat,
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	})
	if err != nil {
		return err
	}
	conn.SetDeadline(time.Time{})
	srcLittle := req[hdrEndian] != endianBig

	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return errors.New("ros: service closed")
	}
	ep.conns[conn] = struct{}{}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.conns, conn)
		ep.mu.Unlock()
	}()

	fr := newFrameReader(conn)
	defer fr.Release()
	for {
		n, crc, err := fr.Next()
		if err != nil {
			return nil // client hung up
		}
		// Handlers consume the request before the next reader call
		// (deserialize or copy-to-arena), so the frame's in-place bytes
		// are safe to hand over.
		frame, err := fr.frame(n)
		if err != nil {
			return nil
		}
		var respFrame []byte
		var release func()
		var herr error
		var t0 time.Time
		if ep.stats != nil {
			t0 = time.Now()
		}
		if wire.Checksum(frame) != crc {
			// The request arrived damaged; tell the caller rather than
			// handing garbage to the handler. The connection stays up —
			// the next header is re-validated by magic.
			herr = errors.New("corrupt request frame")
		} else {
			respFrame, release, herr = ep.handle(frame, srcLittle)
		}
		if st := ep.stats; st != nil {
			st.Calls.Inc()
			if herr != nil {
				st.Errors.Inc()
			}
			st.Latency.Observe(time.Since(t0))
		}
		// A wedged or vanished caller must not pin this goroutine in a
		// blocked Write forever.
		conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
		if herr != nil {
			if err := writeStatusFrame(conn, 0, []byte(herr.Error())); err != nil {
				return nil
			}
			conn.SetWriteDeadline(zeroTime())
			continue
		}
		werr := writeStatusFrame(conn, 1, respFrame)
		if release != nil {
			release()
		}
		if werr != nil {
			return nil
		}
		conn.SetWriteDeadline(zeroTime())
	}
}

func (ep *serviceEndpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	conns := make([]net.Conn, 0, len(ep.conns))
	for c := range ep.conns {
		conns = append(conns, c)
	}
	ep.conns = make(map[net.Conn]struct{})
	ep.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	if ep.unregister != nil {
		ep.unregister()
	}
	ep.node.unregisterService(ep.name)
	ep.wg.Wait()
}

// ServiceClient is a persistent connection to one service (the ROS
// "persistent service client"). Use Call repeatedly; Close when done.
// It is not safe for concurrent Calls.
type ServiceClient[Req, Resp any] struct {
	name    string
	conn    net.Conn
	fr      *frameReader
	sfm     bool
	layout  *core.Layout // response layout for endian conversion (SFM)
	little  bool         // server byte order
	timeout time.Duration
}

// SetCallTimeout bounds each subsequent Call: the whole exchange
// (request write through response read) must finish within d or the
// call fails with a deadline error. Zero (the default) waits forever.
// On an unreliable link a dropped request would otherwise block Call
// indefinitely; with a timeout the caller can retry.
func (c *ServiceClient[Req, Resp]) SetCallTimeout(d time.Duration) { c.timeout = d }

// NewServiceClient resolves and connects to a service.
func NewServiceClient[Req, Resp any](n *Node, name string) (*ServiceClient[Req, Resp], error) {
	reqType, reqMD5, ok := typeInfoOf[Req]()
	if !ok {
		return nil, fmt.Errorf("ros: request type %T is not a message", new(Req))
	}
	respType, respMD5, ok := typeInfoOf[Resp]()
	if !ok {
		return nil, fmt.Errorf("ros: response type %T is not a message", new(Resp))
	}
	sfm := isSFMType[Req]()
	if sfm != isSFMType[Resp]() {
		return nil, fmt.Errorf("ros: request and response must share a wire regime")
	}

	info, found, err := n.master.LookupService(name)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrServiceNotFound, name)
	}
	conn, err := n.dial(info.Addr)
	if err != nil {
		return nil, err
	}
	format := formatROS1
	if sfm {
		format = formatSFM
	}
	conn.SetDeadline(nowPlusHandshake())
	err = writeHeader(conn, map[string]string{
		hdrService:  name,
		hdrReqType:  reqType,
		hdrRspType:  respType,
		hdrMD5:      reqMD5 + respMD5,
		hdrCallerID: n.name,
		hdrFormat:   format,
		hdrEndian:   nativeEndianName(core.NativeLittleEndian()),
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	reply, err := readHeader(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if msg, bad := reply[hdrError]; bad {
		conn.Close()
		return nil, fmt.Errorf("%w: %s", ErrHandshake, msg)
	}
	conn.SetDeadline(zeroTime())

	c := &ServiceClient[Req, Resp]{
		name:   name,
		conn:   conn,
		fr:     newFrameReader(conn),
		sfm:    sfm,
		little: reply[hdrEndian] != endianBig,
	}
	if sfm {
		c.layout, err = core.LayoutOf[Resp]()
		if err != nil {
			conn.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close disconnects the client and returns its batch buffer to the
// ingress pool.
func (c *ServiceClient[Req, Resp]) Close() error {
	err := c.conn.Close()
	c.fr.Release()
	return err
}

// Call performs one request/response exchange. For serialization-free
// types the returned response is arena-backed: release it with
// core.Release when done.
func (c *ServiceClient[Req, Resp]) Call(req *Req) (*Resp, error) {
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
		defer c.conn.SetDeadline(zeroTime())
	}
	// Send the request in the appropriate regime.
	if c.sfm {
		frame, err := core.Bytes(req)
		if err != nil {
			return nil, err
		}
		if err := writeFrame(c.conn, frame); err != nil {
			return nil, err
		}
	} else {
		s, ok := any(req).(Serializable)
		if !ok {
			return nil, fmt.Errorf("ros: %T is not serializable", req)
		}
		w := wire.NewWriter(s.SerializedSizeROS())
		if err := s.SerializeROS(w); err != nil {
			return nil, err
		}
		if err := writeFrame(c.conn, w.Bytes()); err != nil {
			return nil, err
		}
	}

	// Status byte, then the response or error frame — all through the
	// shared ingress reader, so the server's single vectored
	// status+frame write is drained by one read wakeup instead of the
	// old three ReadFull syscalls (status, header, body).
	var status [1]byte
	if err := c.fr.ReadFull(status[:]); err != nil {
		return nil, err
	}
	n, crc, err := c.fr.Next()
	if err != nil {
		return nil, err
	}
	if status[0] == 0 {
		msg := make([]byte, n)
		if err := c.fr.ReadFull(msg); err != nil {
			return nil, err
		}
		if wire.Checksum(msg) != crc {
			return nil, fmt.Errorf("ros: service %q reply: %w", c.name, wire.ErrCorruptFrame)
		}
		return nil, &ServiceError{Service: c.name, Msg: string(msg)}
	}

	if c.sfm {
		buf := core.Default().GetBuffer(n)
		if err := c.fr.ReadFull(buf.Bytes()[:n]); err != nil {
			buf.Discard()
			return nil, err
		}
		// Verify before endianness conversion mutates the bytes and
		// before the buffer is adopted — a corrupt frame must never
		// become a live message.
		if wire.Checksum(buf.Bytes()[:n]) != crc {
			buf.Discard()
			return nil, fmt.Errorf("ros: service %q reply: %w", c.name, wire.ErrCorruptFrame)
		}
		if err := core.ConvertEndianness(buf.Bytes()[:n], c.layout, c.little); err != nil {
			buf.Discard()
			return nil, err
		}
		return core.Adopt[Resp](buf, n)
	}
	frame, err := c.fr.frame(n)
	if err != nil {
		return nil, err
	}
	if wire.Checksum(frame) != crc {
		return nil, fmt.Errorf("ros: service %q reply: %w", c.name, wire.ErrCorruptFrame)
	}
	resp := new(Resp)
	rs, _ := any(resp).(Serializable)
	if err := rs.DeserializeROS(wire.NewReader(frame)); err != nil {
		return nil, err
	}
	return resp, nil
}

// CallService is the one-shot convenience: connect, call once,
// disconnect — ROS's default non-persistent client behavior.
func CallService[Req, Resp any](n *Node, name string, req *Req) (*Resp, error) {
	c, err := NewServiceClient[Req, Resp](n, name)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Call(req)
}
