package main

import (
	"errors"
	"fmt"
	"time"

	"rossf/internal/core"
	"rossf/internal/ros"
	"rossf/msgs/sensor_msgs"
)

// nSubs is the subscription count of every workload: one subscriber
// node holding two subscriptions, so exactly two data connections.
const nSubs = 2

// headerFields is the camera workload's header-only field mask.
var headerFields = []string{"header.seq", "header.stamp", "header.frame_id"}

// workload is one named input set and topology variant.
type workload struct {
	name string
	why  string
	shm  bool // publisher allocates from a shm.Store-backed manager

	transports [nSubs]ros.TransportMode
	fields     [nSubs][]string // non-nil: a masked (header-only) subscription

	window  int           // stream-phase messages in flight, below the default queue depth of 16
	rounds  int           // ping+stream rounds per pass; each ping round needs 1000+ deliveries for its p99
	timeout time.Duration // longest wait for any single delivery, and for set-up to attach

	// Image workloads (sensor_msgs/ImageSF).
	height, width, step uint32
	encoding            string
	capacity            int // arena capacity; 0 = the registered default

	// Scan workload (regular sensor_msgs/LaserScan).
	nscan int

	run func(c *config, w *workload, in *inputs) *runResult
}

func (w *workload) size() int { return int(w.height * w.step) }

func (w *workload) inputs(seed uint64) *inputs { return newInputs(seed, w.size(), w.nscan) }

var workloads = []*workload{
	{
		name:       "small_tcp",
		why:        "4 KiB images to two TCP subscribers: per-message overhead (fan-out, egress, ingress, CRC, dispatch); the bypass case for shm changes",
		transports: [nSubs]ros.TransportMode{ros.TransportTCP, ros.TransportTCP},
		window:     8, rounds: 20, timeout: 5 * time.Second,
		height: 32, width: 128, step: 128, encoding: "mono8", capacity: 8 << 10,
		run: runImages,
	},
	{
		name:       "small_shm",
		why:        "the same 4 KiB images over shared-memory descriptors: the descriptor path where the 4 KiB shm inversion lives",
		shm:        true,
		transports: [nSubs]ros.TransportMode{ros.TransportShm, ros.TransportShm},
		window:     8, rounds: 20, timeout: 5 * time.Second,
		height: 32, width: 128, step: 128, encoding: "mono8", capacity: 8 << 10,
		run: runImages,
	},
	{
		name:       "camera",
		why:        "1920x1080 rgb8 frames to a full shm consumer and a header-only TCP consumer: byte-heavy arena fill, shm slot tier, sparse field encoding",
		shm:        true,
		transports: [nSubs]ros.TransportMode{ros.TransportShm, ros.TransportTCP},
		fields:     [nSubs][]string{nil, headerFields},
		window:     3, rounds: 3, timeout: 10 * time.Second,
		height: 1080, width: 1920, step: 1920 * 3, encoding: "rgb8",
		run: runImages,
	},
	{
		name:       "ros1_scan",
		why:        "regular LaserScan (1440 ranges and intensities) to two TCP subscribers: ROS1 per-element serialize, receive pump and Go heap allocation",
		transports: [nSubs]ros.TransportMode{ros.TransportTCP, ros.TransportTCP},
		window:     8, rounds: 20, timeout: 5 * time.Second,
		nscan: 1440,
		run:   runScans,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// imageSource creates, fills and checks sensor_msgs/ImageSF messages.
type imageSource struct {
	w  *workload
	in *inputs
}

func runImages(c *config, w *workload, in *inputs) *runResult {
	return execute[sensor_msgs.ImageSF](c, w, &imageSource{w: w, in: in})
}

// alloc allocates from the publisher's manager, which is shm-backed on
// the shm workloads.
func (s *imageSource) alloc(mgr *core.Manager) (*sensor_msgs.ImageSF, error) {
	return core.NewIn[sensor_msgs.ImageSF](mgr, s.w.capacity)
}

func (s *imageSource) fill(m *sensor_msgs.ImageSF, seq uint32) error {
	m.Header.Seq = seq
	m.Header.Stamp = s.in.stampOf(seq)
	if err := m.Header.FrameID.Set(s.in.frameID(seq)); err != nil {
		return err
	}
	m.Height, m.Width, m.Step = s.w.height, s.w.width, s.w.step
	if err := m.Encoding.Set(s.w.encoding); err != nil {
		return err
	}
	if err := m.Data.Resize(s.in.size); err != nil {
		return err
	}
	copy(m.Data.Slice(), s.in.payload(seq))
	return nil
}

func (s *imageSource) release(m *sensor_msgs.ImageSF) error {
	_, err := core.Release(m)
	return err
}

func (s *imageSource) seqOf(m *sensor_msgs.ImageSF) uint32 { return m.Header.Seq }

var (
	errHeader  = errors.New("header mismatch")
	errFields  = errors.New("image fields mismatch")
	errPayload = errors.New("payload checksum mismatch")
	errMasked  = errors.New("unrequested field delivered to a masked subscription")
)

func (s *imageSource) check(k int, m *sensor_msgs.ImageSF, seq uint32) error {
	if m.Header.Stamp != s.in.stampOf(seq) || string(m.Header.FrameID.View()) != s.in.frameID(seq) {
		return errHeader
	}
	if s.w.fields[k] != nil {
		if m.Data.Len() != 0 || m.Encoding.IsSet() {
			return errMasked
		}
		return nil
	}
	if m.Height != s.w.height || m.Width != s.w.width || m.Step != s.w.step ||
		string(m.Encoding.View()) != s.w.encoding || m.Data.Len() != s.in.size {
		return errFields
	}
	if checksum(m.Data.Slice()) != s.in.payloadCRC(seq) {
		return errPayload
	}
	return nil
}

// scanSource creates, fills and checks regular sensor_msgs/LaserScan
// messages, which the ROS1 serializer encodes element by element.
type scanSource struct {
	w  *workload
	in *inputs
}

func runScans(c *config, w *workload, in *inputs) *runResult {
	return execute[sensor_msgs.LaserScan](c, w, &scanSource{w: w, in: in})
}

const scanStep = float32(0.25 * 3.14159265 / 180)

func (s *scanSource) alloc(*core.Manager) (*sensor_msgs.LaserScan, error) {
	return &sensor_msgs.LaserScan{
		Ranges:      make([]float32, s.in.nscan),
		Intensities: make([]float32, s.in.nscan),
	}, nil
}

func (s *scanSource) fill(m *sensor_msgs.LaserScan, seq uint32) error {
	m.Header.Seq = seq
	m.Header.Stamp = s.in.stampOf(seq)
	m.Header.FrameID = s.in.frameID(seq)
	m.AngleMin, m.AngleIncrement = -3.14159265, scanStep
	m.AngleMax = m.AngleMin + scanStep*float32(s.in.nscan-1)
	m.ScanTime, m.RangeMin, m.RangeMax = 0.025, 0.1, 30
	r, it := s.in.scan(seq)
	copy(m.Ranges, r)
	copy(m.Intensities, it)
	return nil
}

func (s *scanSource) release(*sensor_msgs.LaserScan) error { return nil }

func (s *scanSource) seqOf(m *sensor_msgs.LaserScan) uint32 { return m.Header.Seq }

func (s *scanSource) check(_ int, m *sensor_msgs.LaserScan, seq uint32) error {
	if m.Header.Stamp != s.in.stampOf(seq) || m.Header.FrameID != s.in.frameID(seq) {
		return errHeader
	}
	if len(m.Ranges) != s.in.nscan || len(m.Intensities) != s.in.nscan ||
		m.AngleIncrement != scanStep || m.RangeMax != 30 {
		return fmt.Errorf("%w: %d ranges", errFields, len(m.Ranges))
	}
	crc := checksum(floatBytes(m.Ranges))
	if crc32Update(crc, floatBytes(m.Intensities)) != s.in.scanCRC(seq) {
		return errPayload
	}
	return nil
}
