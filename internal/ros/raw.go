package ros

import "errors"

// RawMessage is one frame delivered to a raw subscriber, with the
// publisher-declared wire regime.
type RawMessage struct {
	// Frame is the wire payload: a ROS1 serialization or an SFM
	// whole-message image, depending on Format. It is only valid during
	// the callback.
	Frame []byte
	// Format is "ros1" or "sfm".
	Format string
	// LittleEndian is the publisher's byte order (meaningful for SFM
	// frames).
	LittleEndian bool
}

// SubscribeRaw attaches to a topic without compiled-in message types,
// delivering raw frames — the mechanism behind introspection tools like
// cmd/rostopic and the relay tier. typeName/md5 must match the topic
// binding (obtain them from the master's TopicsInfo); sfm selects which
// wire regime to negotiate. Raw subscriptions always use the TCP
// transport; of the options, WithRetry, WithConnState and WithoutRelay
// apply (transport/queue/manager options are typed-path concerns).
func SubscribeRaw(n *Node, topic, typeName, md5 string, sfm bool,
	cb func(RawMessage), opts ...SubOption) (*Subscriber, error) {
	cfg := subConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.fields) > 0 && !sfm {
		return nil, errors.New("ros: WithFields requires the sfm wire regime")
	}
	s := &Subscriber{
		node:      n,
		topic:     topic,
		typeName:  typeName,
		md5:       md5,
		retry:     cfg.retry.withDefaults(),
		connState: cfg.connState,
		noRelay:   cfg.noRelay,
		fields:    cfg.fields,
		stats:     n.metrics.Subscriber(topic),
		conns:     make(map[string]*subConn),
		inproc:    make(map[*pubEndpoint]struct{}),
	}
	s.sink = rawSink(s, sfm, cb)
	if err := n.registerSub(s); err != nil {
		return nil, err
	}
	cancel, err := n.master.WatchPublishers(topic, typeName, md5, func(pubs []PublisherInfo) {
		s.onPublishers(pubs, TransportTCP)
	})
	if err != nil {
		n.unregisterSub(s)
		return nil, err
	}
	s.cancelWatch = cancel
	return s, nil
}

// RawPublisher publishes pre-encoded frames under an explicit topic
// binding — the mechanism behind rosbag playback. The frames must be in
// the declared format; littleEndian declares the byte order of SFM
// frames (e.g. the order they were recorded in).
type RawPublisher struct {
	ep *pubEndpoint
}

// AdvertiseRaw declares a topic with explicit metadata and returns a
// frame-level publisher.
func AdvertiseRaw(n *Node, topic, typeName, md5 string, sfm, littleEndian bool,
	opts ...PubOption) (*RawPublisher, error) {
	cfg := pubConfig{queueSize: defaultQueueSize, writeTimeout: defaultWriteTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	ep := &pubEndpoint{
		node:         n,
		topic:        topic,
		typeName:     typeName,
		md5:          md5,
		sfm:          sfm,
		queueSize:    cfg.queueSize,
		latch:        cfg.latch,
		writeTimeout: cfg.writeTimeout,
		egressShards: cfg.egressShards,
		endianName:   nativeEndianName(littleEndian),
		stats:        n.metrics.Publisher(topic),
		conns:        make(map[*pubConn]struct{}),
		inproc:       make(map[*sink]uint64),
	}
	if err := n.registerPub(topic, ep); err != nil {
		return nil, err
	}
	unregister, err := n.master.RegisterPublisher(topic, PublisherInfo{
		NodeName: n.name, Addr: n.addr, TypeName: typeName, MD5: md5,
		Relay: cfg.relay, direct: ep,
	})
	if err != nil {
		n.unregisterPub(topic)
		return nil, err
	}
	ep.unregister = unregister
	return &RawPublisher{ep: ep}, nil
}

// Topic returns the advertised topic.
func (p *RawPublisher) Topic() string { return p.ep.topic }

// NumSubscribers returns the number of attached subscribers.
func (p *RawPublisher) NumSubscribers() int { return p.ep.numSubscribers() }

// Close withdraws the advertisement.
func (p *RawPublisher) Close() { p.ep.close() }

// PublishFrame fans a pre-encoded frame out to all subscribers. The
// frame is not retained after the last write completes; callers may
// reuse it only after Close.
func (p *RawPublisher) PublishFrame(frame []byte) error {
	if p.ep.isClosed() {
		return errors.New("ros: publisher closed")
	}
	// The latch copy is built first and installed atomically with the
	// fan-out snapshot (same latched-publish race as the typed path).
	var l *latchedMsg
	if p.ep.latch {
		cp := append([]byte(nil), frame...)
		l = &latchedMsg{frame: cp}
	}
	p.ep.fanoutFrame(frame, l)
	return nil
}
