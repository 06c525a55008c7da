package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// Generator-side boundaries of one message, in the order they happen.
const (
	tCreate  = iota // before core.New/NewIn (or the ROS1 struct literal)
	tAlloc          // core.New/NewIn returned
	tFill           // payload and fields written
	tPublish        // Publish returned
	tRelease        // core.Release returned
	nBounds
)

// msgRecord holds one traced message's timestamps on the run clock. The
// generator writes t; subscription k's callback writes cbIn[k] on entry
// and cbOut[k] on return.
type msgRecord struct {
	seq         uint32
	t           [nBounds]int64
	cbIn, cbOut [nSubs]atomic.Int64
}

// recorder keeps a phase's message records in memory, indexed by
// sequence number from base. Messages past its capacity are still timed
// (into a sink record) so tracing costs the same on every message, but
// are not kept.
type recorder struct {
	base uint32
	recs []msgRecord
	used int
	sink msgRecord
}

func newRecorder(base uint32, capacity int) *recorder {
	return &recorder{base: base, recs: make([]msgRecord, capacity)}
}

// at returns the record for seq.
func (r *recorder) at(seq uint32) *msgRecord {
	if i := int(seq - r.base); i < len(r.recs) {
		return &r.recs[i]
	}
	return &r.sink
}

// sent notes that the generator finished with seq.
func (r *recorder) sent(seq uint32) {
	if i := int(seq - r.base); i < len(r.recs) {
		r.recs[i].seq = seq
		r.used = max(r.used, i+1)
	}
}

// span is one interval of a message's life. Spans of one message share
// trace (its sequence number); parent indexes the message's span list
// (-1 for the root).
type span struct {
	trace      uint32
	name       string
	parent     int
	sub        int // subscription index, or -1
	start, end int64
}

// Span names; the root "msg" covers creation to the last callback, the
// root "setup" master start to every subscription attached.
const (
	spanMsg       = "msg"
	spanAlloc     = "core.alloc"
	spanFill      = "core.fill"
	spanPublish   = "ros.publish"
	spanRelease   = "core.release"
	spanDeliver   = "ros.deliver"
	spanCallback  = "callback"
	spanSetup     = "setup"
	spanAdvertise = "graph.advertise"
	spanSubscribe = "graph.subscribe"
	spanAttach    = "graph.attach"
)

// spansOf expands a record into its span tree: the msg root with every
// layer call as a direct child. ros.deliver runs from Publish returning
// to callback entry; a callback entered before Publish returned gives it
// zero length.
func spansOf(r *msgRecord) []span {
	t := r.t
	out := []span{
		{name: spanMsg, parent: -1, sub: -1, start: t[tCreate]},
		{name: spanAlloc, sub: -1, start: t[tCreate], end: t[tAlloc]},
		{name: spanFill, sub: -1, start: t[tAlloc], end: t[tFill]},
		{name: spanPublish, sub: -1, start: t[tFill], end: t[tPublish]},
		{name: spanRelease, sub: -1, start: t[tPublish], end: t[tRelease]},
	}
	for k := 0; k < nSubs; k++ {
		in, done := r.cbIn[k].Load(), r.cbOut[k].Load()
		out = append(out,
			span{name: spanDeliver, sub: k, start: min(t[tPublish], in), end: in},
			span{name: spanCallback, sub: k, start: in, end: done})
	}
	for i := range out {
		out[i].trace = r.seq
		out[0].end = max(out[0].end, out[i].end)
	}
	return out
}

// setupSpans expands set-up i into its span tree: the setup root with
// the Advertise call, each Subscribe call and the wait until attached as
// direct children. All share i as their trace id.
func setupSpans(i int, st setupTimes) []span {
	at := func(name string, sub int, start int64, d time.Duration) span {
		return span{trace: uint32(i), name: name, sub: sub, start: start, end: start + int64(d)}
	}
	out := []span{at(spanSetup, -1, st.startAt, st.total), at(spanAdvertise, -1, st.advertiseAt, st.advertise)}
	for k := 0; k < nSubs; k++ {
		out = append(out, at(spanSubscribe, k, st.subscribeAt[k], st.subscribe[k]))
	}
	out = append(out, at(spanAttach, -1, st.attachAt, st.attach))
	out[0].parent = -1
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// (two subscribers' deliveries) count once.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids [][2]int64
	for i, s := range spans {
		kids = kids[:0]
		for _, c := range spans {
			if c.parent != i {
				continue
			}
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if lo < hi {
				kids = append(kids, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(kids, func(a, b [2]int64) int { return int(a[0] - b[0]) })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo := max(k[0], reach)
			if k[1] > lo {
				covered += k[1] - lo
				reach = k[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTimes is every span's self time in one phase, grouped by name.
type layerTimes map[string][]int64

// collect expands every kept record of r into spans, appends their self
// times to lt, and writes them to w (which may be nil).
func (r *recorder) collect(lt layerTimes, phase string, w *bufio.Writer) int {
	n := 0
	for i := 0; i < r.used; i++ {
		n += emit(spansOf(&r.recs[i]), lt, phase, w)
	}
	return n
}

// emit appends one span tree's self times to lt, writes its spans to w
// (which may be nil) and returns how many there were.
func emit(spans []span, lt layerTimes, phase string, w *bufio.Writer) int {
	self := selfTimes(spans)
	for j, s := range spans {
		lt[s.name] = append(lt[s.name], self[j])
		if w != nil {
			parent := ""
			if s.parent >= 0 {
				parent = spans[s.parent].name
			}
			fmt.Fprintf(w, "%s,%d,%s,%s,%d,%d,%d,%d\n",
				phase, s.trace, s.name, parent, s.sub, s.start, s.end, self[j])
		}
	}
	return len(spans)
}

// writeTrace writes the spans of every set-up and every kept span of the
// given phases' recorders to dir/<workload>-seed<seed>.csv and returns
// the file path and span count.
func writeTrace(dir, workload string, seed uint64, setups []setupTimes, phases map[string][]*recorder, lt map[string]layerTimes) (string, int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "phase,trace,span,parent,sub,start_ns,end_ns,self_ns")
	total := 0
	lt[spanSetup] = layerTimes{}
	for i, st := range setups {
		total += emit(setupSpans(i, st), lt[spanSetup], spanSetup, w)
	}
	for _, phase := range []string{"ping", "stream"} {
		if lt[phase] == nil {
			lt[phase] = layerTimes{}
		}
		for _, r := range phases[phase] {
			total += r.collect(lt[phase], phase, w)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", 0, fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", 0, fmt.Errorf("trace file: %w", err)
	}
	return path, total, nil
}
