package main

import (
	"errors"
	"strings"
	"testing"
)

func seq(n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = int64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int64
		ok   bool
	}{
		{1000, 0.99, 990, true},  // exactly ten samples above the p99
		{999, 0.99, 990, false},  // nine above: not reportable
		{21, 0.50, 11, true},     // ten above the median
		{20, 0.50, 10, true},     // ten above the median (11..20)
		{19, 0.50, 10, false},    // nine above
		{2000, 0.99, 1980, true}, // twenty above
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSummarizeNeedsTenBeyondP99(t *testing.T) {
	if l := summarize(seq(1000)); l.err != nil || l.p50 != 500 || l.p99 != 990 {
		t.Errorf("summarize(1..1000) = %+v", l)
	}
	if l := summarize(seq(999)); l.err == nil {
		t.Error("summarize(1..999) reported a p99 with nine samples beyond it")
	}
	// Order of the input does not matter and the input is not modified.
	in := []int64{5, 3, 9, 1}
	summarize(in)
	if in[0] != 5 || in[3] != 1 {
		t.Errorf("summarize reordered its input: %v", in)
	}
}

func TestLayerPercentilesNeedTenBeyond(t *testing.T) {
	lt := map[string]layerTimes{"ping": {spanAlloc: seq(1010), spanPublish: seq(500)}}
	_, errs := perLayerOf(&runResult{}, &pass{}, &pass{}, lt, 0)
	var msgs []string
	for _, e := range errs {
		msgs = append(msgs, e.Error())
	}
	all := strings.Join(msgs, "\n")
	if !strings.Contains(all, "ping ros.publish p99: 500 spans") {
		t.Errorf("errors %q do not reject the publish p99 of 500 spans", msgs)
	}
	if strings.Contains(all, spanAlloc+" p99") {
		t.Errorf("errors %q reject the alloc p99 of 1010 spans", msgs)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

func TestSubStateCountsEveryFailure(t *testing.T) {
	var s subState
	bad := errors.New("corrupt")
	steps := []struct {
		seq   uint32
		err   error
		first bool
	}{
		{0, nil, true},
		{1, nil, true},
		{3, nil, true},  // seq 2 skipped: missing
		{3, nil, false}, // duplicate
		{4, bad, true},  // delivered but wrong
		{5, nil, true},
	}
	for _, st := range steps {
		if got := s.record(st.seq, 7, st.err); got != st.first {
			t.Errorf("record(%d) first = %v, want %v", st.seq, got, st.first)
		}
	}
	if s.ok != 4 || s.dup != 1 || s.reason == "" {
		t.Errorf("ok %d dup %d reason %q; want 4, 1 and a reason", s.ok, s.dup, s.reason)
	}
	if got := s.take(); len(got) != 4 {
		t.Errorf("kept %d latency samples, want 4 (only verified deliveries)", len(got))
	}
	if got := s.take(); len(got) != 0 {
		t.Errorf("take did not clear: %d samples left", len(got))
	}
}
