package main

import (
	"bufio"
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestSelfTimesSyntheticTree(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},  // 20, holds a child
		{name: "b", parent: 0, start: 25, end: 50},  // overlaps a by 5
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the root: 10 inside
		{name: "a1", parent: 1, start: 12, end: 18}, // child of a
		{name: "z", parent: 0, start: 60, end: 60},  // empty
	}
	// root: 100 minus the union [10,50) and [90,100) = 100-40-10 = 50.
	// a: 20 minus a1's 6 = 14. b, c, a1, z: no children.
	want := []int64{50, 14, 25, 30, 6, 0}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func tracedRecord() *msgRecord {
	r := &msgRecord{seq: 7, t: [nBounds]int64{100, 110, 150, 170, 175}}
	r.cbIn[0].Store(200)
	r.cbOut[0].Store(230)
	r.cbIn[1].Store(160) // entered before Publish returned
	r.cbOut[1].Store(240)
	return r
}

func TestSpansOfMessage(t *testing.T) {
	spans := spansOf(tracedRecord())
	byName := map[string][]span{}
	for _, s := range spans {
		if s.trace != 7 {
			t.Errorf("span %s has trace %d, want the message seq 7", s.name, s.trace)
		}
		byName[s.name] = append(byName[s.name], s)
	}
	root := spans[0]
	if root.name != spanMsg || root.parent != -1 || root.start != 100 || root.end != 240 {
		t.Errorf("root = %+v, want msg [100,240]", root)
	}
	for _, s := range spans[1:] {
		if s.parent != 0 {
			t.Errorf("%s parent = %d, want the root", s.name, s.parent)
		}
	}
	if d := byName[spanDeliver]; len(d) != 2 || d[0].end-d[0].start != 30 || d[1].end-d[1].start != 0 {
		t.Errorf("deliver spans = %+v, want 30ns and a zero-length one", d)
	}
	self := selfTimes(spans)
	// Children cover [100,175) and [160,240): the root keeps no self time.
	if self[0] != 0 {
		t.Errorf("root self = %d, want 0", self[0])
	}
	for i, s := range spans {
		if i > 0 && self[i] != s.end-s.start {
			t.Errorf("%s self = %d, want its whole duration", s.name, self[i])
		}
	}
}

func TestRecorderCollect(t *testing.T) {
	r := newRecorder(5, 2)
	r.at(5).t = [nBounds]int64{1, 2, 3, 4, 5}
	r.sent(5)
	r.at(9).t[tCreate] = 99 // past capacity: timed into the sink, not kept
	r.sent(9)
	lt := layerTimes{}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if n := r.collect(lt, "ping", w); n != 9 {
		t.Fatalf("collected %d spans, want 9 from the one kept message", n)
	}
	w.Flush()
	if got := lt[spanPublish]; !slices.Equal(got, []int64{1}) {
		t.Errorf("publish self times = %v, want [1]", got)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 9 {
		t.Errorf("wrote %d span lines, want 9", lines)
	}
}

func TestSetupSpans(t *testing.T) {
	st := setupTimes{
		total: 100, advertise: 10, attach: 30, subscribe: [nSubs]time.Duration{5, 6},
		startAt: 1000, advertiseAt: 1040, attachAt: 1070, subscribeAt: [nSubs]int64{1055, 1062},
	}
	spans := setupSpans(4, st)
	want := []span{
		{trace: 4, name: spanSetup, parent: -1, sub: -1, start: 1000, end: 1100},
		{trace: 4, name: spanAdvertise, sub: -1, start: 1040, end: 1050},
		{trace: 4, name: spanSubscribe, sub: 0, start: 1055, end: 1060},
		{trace: 4, name: spanSubscribe, sub: 1, start: 1062, end: 1068},
		{trace: 4, name: spanAttach, sub: -1, start: 1070, end: 1100},
	}
	if !slices.Equal(spans, want) {
		t.Fatalf("setupSpans = %+v, want %+v", spans, want)
	}
	// The root keeps what its children leave: master start, node dials.
	if self := selfTimes(spans); !slices.Equal(self, []int64{49, 10, 5, 6, 30}) {
		t.Errorf("self times = %v", self)
	}
}
