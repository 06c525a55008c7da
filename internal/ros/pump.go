package ros

import (
	"errors"
	"time"

	"rossf/internal/core"
	"rossf/internal/fieldwire"
	"rossf/internal/obs"
	"rossf/internal/shm"
	"rossf/internal/wire"
)

// The receive pump. Every subscription stream — and the bench drain —
// runs through one loop, parameterized by a frame decoder (how the
// stream frames its messages, chosen from the publisher's handshake
// reply, see handshake.go) and a delivery sink (what a verified
// message image becomes, chosen by the subscription's type). The loop
// owns the per-frame invariants once: next frame, fold resync bytes,
// verify the checksum before anything is adopted (the frame reader's
// payload step, which the service loops share), count corrupt frames,
// convert the byte order, dispatch.
//
//	decoder   payload                          sinks
//	plain     the message image                ros1, sfm, raw, count
//	tagged    tag||descriptor or tag||image    sfm
//	sparse    field-wire sparse image          sfm, raw
//
// Copies are the minimum each pair allows: in-place sinks (ros1, raw,
// count) read frames straight out of the ingress batch buffer; the SFM
// sink reads payloads straight into an arena (frames larger than the
// batch stream kernel→arena), materializes sparse payloads straight
// into one, and adopts resolved shm descriptors with no copy at all.

// frameDecoder names how a subscription stream frames its messages.
type frameDecoder int

const (
	// decodePlain: the frame payload is the message image — ROS1 bytes
	// or an SFM whole-message image.
	decodePlain frameDecoder = iota
	// decodeTagged: shm-negotiated framing, payload tag||body with body
	// a 24-byte shm descriptor or the image inline (see shm.go).
	decodeTagged
	// decodeSparse: field-wire framing, payload a sparse encoding of an
	// SFM image (see fieldwire.go).
	decodeSparse
)

var (
	// errDropped: the frame was sound but its message cannot be
	// delivered (a stale descriptor); the stream stays healthy.
	errDropped = errors.New("ros: message dropped")
	// errMaskFallback ends a masked link after fieldsFallbackAfter
	// consecutive undecodable sparse payloads; the redial offers no mask.
	errMaskFallback = errors.New("ros: sparse payloads undecodable, redialing without the field mask")
	// errDrained: a counting sink has seen all the frames it wanted.
	errDrained = errors.New("ros: drain complete")
)

// image is one decoded message. p holds its bytes: in place in the
// reader's buffers (valid until the next reader call), or in buf when
// it lives in an arena or an adopted shm slot. wire is its size on the
// wire, which the instruments report.
type image struct {
	p    []byte
	buf  *core.Buffer
	wire int
}

func (img image) discard() {
	if img.buf != nil {
		img.buf.Discard()
	}
}

// sink is the delivery half of the pump. Sinks with an arena manager
// (typed SFM subscriptions) take arena images and can adopt external
// shm buffers; the others consume images in place.
type sink struct {
	sub *Subscriber
	sfm bool // negotiates the SFM wire regime (ROS1 otherwise)
	// mgr and layout are set on arena sinks: payloads are read straight
	// into mgr's buffers and converted through layout from the
	// publisher's byte order.
	mgr    *core.Manager
	layout *core.Layout
	// deliver hands one verified, native-order image to the callback.
	// Arena sinks own img.buf from here on; in-place sinks see img.p
	// only during the call. An error stops the pump.
	deliver func(img image, little bool) error
	// shared takes a same-process SFM message; release runs exactly
	// once. Only SFM sinks set it, and only they attach to SFM
	// publishers (attachInproc checks the regime).
	shared func(m any, release func())
}

// adoptsShm reports whether the sink can take shm-framed streams. The
// handshake offer and the decoder selection both ask it, so a
// subscription never offers a transport its pump cannot take.
func (k *sink) adoptsShm() bool { return k.mgr != nil }

// take hands a verified image to the sink — the one step every frame
// and every same-process frame hand-over ends in. Arena images convert
// from the publisher's byte order (§4.4.1; a no-op when it matches,
// which is always the case for shm descriptors: only same-boot typed
// publishers mint them) before adoption.
func (k *sink) take(img image, little bool) error {
	if img.buf != nil {
		if err := core.ConvertEndianness(img.p, k.layout, little); err != nil {
			img.buf.Discard()
			return wire.ErrCorruptFrame
		}
	}
	return k.deliver(img, little)
}

// deliverFrame hands over a same-process publisher's frame, its byte
// order declared by little: it takes the pump's path, copied into an
// arena first for arena sinks. The frame is not retained past the call.
func (k *sink) deliverFrame(frame []byte, little bool) {
	img := image{p: frame, wire: len(frame)}
	if k.mgr != nil {
		img.buf = k.mgr.GetBuffer(len(frame))
		img.p = img.buf.Bytes()[:len(frame)]
		copy(img.p, frame)
	}
	k.take(img, little)
}

// pump is one connection's receive loop state.
type pump struct {
	fr     *frameReader
	dec    frameDecoder
	sink   *sink
	little bool // the publisher's declared byte order

	mp *shm.Mapper // decodeTagged: descriptor resolver

	sc        *subConn            // decodeSparse: the link a fallback de-masks
	fw        *obs.FieldwireStats // decodeSparse: nil when metrics are disabled
	sparse    fieldwire.Decoder   // decodeSparse
	scratch   scratchBuf          // decodeSparse: images for in-place sinks
	badStreak int                 // decodeSparse: consecutive undecodable payloads
}

// run consumes frames until the stream fails, the sink stops it, or a
// masked link falls back; it returns why.
func (p *pump) run() error {
	k := p.sink
	defer k.sub.noteStreamDamage(p.fr)
	for {
		n, crc, err := p.fr.Next()
		if err != nil {
			return err
		}
		k.sub.noteResync(p.fr)
		img, err := p.decode(n, crc)
		if err == nil {
			err = k.take(img, p.little)
		}
		switch err {
		case nil, errDropped:
		case wire.ErrCorruptFrame:
			k.sub.noteCorrupt() // rejected, never delivered; the stream resyncs
		case errMaskFallback:
			k.sub.noteCorrupt()
			return err
		default:
			return err
		}
	}
}

// decode consumes the current frame's n payload bytes and returns the
// verified image they carry.
func (p *pump) decode(n int, crc uint32) (image, error) {
	switch p.dec {
	case decodeTagged:
		if n < 1 {
			return image{}, wire.ErrCorruptFrame
		}
		var tag [1]byte
		if err := p.fr.ReadFull(tag[:]); err != nil {
			return image{}, err
		}
		switch {
		case tag[0] == tagInline:
			return p.fr.payload(n-1, wire.Checksum(tag[:]), crc, p.sink.mgr)
		case tag[0] == tagDescriptor && n-1 == shm.DescriptorSize:
			img, err := p.fr.payload(n-1, wire.Checksum(tag[:]), crc, nil)
			if err != nil {
				return img, err
			}
			return p.resolve(img.p)
		}
		// A malformed descriptor, or an unknown tag from a future build:
		// skip the frame, keep the stream.
		if err := p.fr.Discard(n - 1); err != nil {
			return image{}, err
		}
		return image{}, wire.ErrCorruptFrame
	case decodeSparse:
		img, err := p.fr.payload(n, 0, crc, nil)
		if err != nil {
			return img, err
		}
		return p.materialize(img.p)
	}
	return p.fr.payload(n, 0, crc, p.sink.mgr)
}

// resolve maps a verified descriptor to the shared bytes it names,
// adopted as an external arena buffer — no copy.
func (p *pump) resolve(b []byte) (image, error) {
	d, err := shm.ParseDescriptor(b)
	if err != nil {
		return image{}, wire.ErrCorruptFrame
	}
	mem, release, err := p.mp.Resolve(d)
	if err != nil {
		// A stale or unmappable descriptor drops this message only.
		if st := p.sink.sub.stats; st != nil {
			st.Stale.Inc()
		}
		return image{}, errDropped
	}
	buf, err := p.sink.mgr.NewExternalBuffer(mem, release)
	if err != nil {
		release()
		return image{}, errDropped
	}
	return image{p: mem, buf: buf, wire: len(mem)}, nil
}

// materialize expands a verified sparse payload into the full image —
// straight into a fresh arena for arena sinks, into scratch otherwise —
// zero-filling every untransmitted range. Persistent decode failure (a
// peer whose encoding this build cannot track) de-masks the link.
func (p *pump) materialize(payload []byte) (image, error) {
	full, err := p.sparse.Parse(payload, maxFrameSize)
	if err != nil {
		if p.fw != nil {
			p.fw.DecodeErrors.Inc()
		}
		if p.badStreak++; p.badStreak >= fieldsFallbackAfter {
			p.sc.decline(offerFields)
			if p.fw != nil {
				p.fw.MaskFallbacks.Inc()
			}
			return image{}, errMaskFallback
		}
		return image{}, wire.ErrCorruptFrame
	}
	p.badStreak = 0
	// Instruments report the wire payload, not the materialized image,
	// so subscriber byte counters show the on-wire saving.
	img := image{wire: len(payload)}
	if p.sink.mgr != nil {
		img.buf = p.sink.mgr.GetBuffer(full)
		img.p = img.buf.Bytes()[:full]
	} else {
		img.p = p.scratch.take(full)
	}
	if err := p.sparse.Materialize(payload, img.p); err != nil {
		img.discard()
		if p.fw != nil {
			p.fw.DecodeErrors.Inc()
		}
		return image{}, wire.ErrCorruptFrame
	}
	return img, nil
}

// ros1Sink de-serializes each frame into a fresh *T.
func ros1Sink[T any](s *Subscriber, cb func(*T)) *sink {
	return &sink{sub: s, deliver: func(img image, _ bool) error {
		m := new(T)
		sz, ok := any(m).(Serializable)
		if !ok || sz.DeserializeROS(wire.NewReader(img.p)) != nil {
			return nil // a malformed frame is dropped, as roscpp does
		}
		st, size := s.stats, img.wire
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		s.dispatch(
			func() {
				cb(m)
				if st != nil {
					st.Messages.Inc()
					st.Bytes.Add(uint64(size))
					st.Latency.Observe(time.Since(t0))
				}
			},
			func() {
				if st != nil {
					st.Drops.Inc()
				}
			})
		return nil
	}}
}

// sfmSink adopts each arena image as a live *T with zero
// transformation — the paper's dummy de-serialization (Fig. 9).
func sfmSink[T any](s *Subscriber, cb func(*T), mgr *core.Manager, layout *core.Layout) *sink {
	return &sink{sub: s, sfm: true, mgr: mgr, layout: layout,
		deliver: func(img image, _ bool) error {
			m, err := core.Adopt[T](img.buf, len(img.p))
			if err != nil {
				img.buf.Discard()
				return nil
			}
			deliverAdopted(s, cb, m, img.wire)
			return nil
		},
		shared: func(m any, release func()) {
			if t, ok := m.(*T); ok {
				deliverShared(s, cb, t, release)
			} else {
				release()
			}
		},
	}
}

// rawSink hands each image to the callback undecoded, annotated with the
// publisher's wire regime and byte order. The callback runs on the
// pump, so the image is valid for exactly its duration.
func rawSink(s *Subscriber, sfm bool, cb func(RawMessage)) *sink {
	format := formatROS1
	if sfm {
		format = formatSFM
	}
	return &sink{sub: s, sfm: sfm, deliver: func(img image, little bool) error {
		st := s.stats
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		cb(RawMessage{Frame: img.p, Format: format, LittleEndian: little})
		if st != nil {
			st.Messages.Inc()
			st.Bytes.Add(uint64(img.wire))
			st.Latency.Observe(time.Since(t0))
		}
		return nil
	}}
}

// deliverAdopted dispatches an adopted message to the callback with the
// release-exactly-once and instrumentation discipline shared by every
// SFM receive path: TCP frames, sparse images, shm descriptors and
// inline shm fallbacks.
func deliverAdopted[T any](s *Subscriber, cb func(*T), m *T, sz int) {
	st := s.stats
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	s.dispatch(
		func() {
			cb(m)
			core.Release(m)
			if st != nil {
				st.Messages.Inc()
				st.Bytes.Add(uint64(sz))
				st.Latency.Observe(time.Since(t0))
			}
		},
		func() {
			core.Release(m)
			if st != nil {
				st.Drops.Inc()
			}
		},
	)
}

// deliverShared dispatches a same-process SFM message. t0 is captured
// only when instruments exist, so the uninstrumented intra-process
// hand-over takes no timestamp and records nothing — this path is the
// SFM publish fast path whose allocation count the zero-overhead test
// pins.
func deliverShared[T any](s *Subscriber, cb func(*T), m *T, release func()) {
	st := s.stats
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	s.dispatch(
		func() {
			cb(m)
			if st != nil {
				st.Messages.Inc()
				if n, err := core.UsedSize(m); err == nil {
					st.Bytes.Add(uint64(n))
				}
			}
			release()
			if st != nil {
				st.Latency.Observe(time.Since(t0))
			}
		},
		func() {
			release()
			if st != nil {
				st.Drops.Inc()
			}
		},
	)
}
