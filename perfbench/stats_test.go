package main

import (
	"testing"
	"time"
)

func TestPercentileReportsTailCount(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 5, 5},
		{90, 9, 1},
		{99, 10, 0},
		{100, 10, 0},
		{1, 1, 9},
	}
	for _, c := range cases {
		v, n := percentile(sorted, c.p)
		if v != c.value || n != c.beyond {
			t.Errorf("percentile(%v) = %v with %d beyond, want %v with %d", c.p, v, n, c.value, c.beyond)
		}
	}
	// Ties: samples equal to the percentile are not beyond it.
	if v, n := percentile([]float64{1, 2, 2, 2, 3}, 50); v != 2 || n != 1 {
		t.Errorf("tied percentile = %v with %d beyond, want 2 with 1", v, n)
	}
	if v, n := percentile(nil, 50); v != 0 || n != 0 {
		t.Errorf("empty percentile = %v with %d beyond, want 0 with 0", v, n)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestZipfIsDeterministicAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipf(50, 1, seed)
		out := make([]int, 2000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed: %d vs %d", i, a[i], b[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("seeds 7 and 8 drew the same sequence")
	}
	counts := make([]int, 50)
	for _, i := range a {
		if i < 0 || i >= 50 {
			t.Fatalf("draw %d out of range", i)
		}
		counts[i]++
	}
	// s = 1 over 50 ranks: rank 0 carries ~22% of the mass, rank 49
	// under 0.5%.
	if counts[0] < 300 || counts[0] <= 5*counts[49] {
		t.Fatalf("not Zipf-skewed: rank 0 drawn %d times, rank 49 %d times", counts[0], counts[49])
	}
}

func TestOpenLoopChargesFromDueTime(t *testing.T) {
	start := time.Unix(100, 0)
	o := openLoop{start: start, interval: time.Second}
	if got := o.due(3); !got.Equal(start.Add(3 * time.Second)) {
		t.Fatalf("due(3) = %v, want start+3s", got)
	}
	// On time: latency is the service time, no lag.
	lat, lag := o.account(2, start.Add(2*time.Second), start.Add(2*time.Second+300*time.Millisecond))
	if lat != 300*time.Millisecond || lag != 0 {
		t.Fatalf("on-time event: latency %v lag %v, want 300ms and 0", lat, lag)
	}
	// Started 400ms late behind a stall: the wait counts into latency.
	lat, lag = o.account(2, start.Add(2400*time.Millisecond), start.Add(2700*time.Millisecond))
	if lat != 700*time.Millisecond || lag != 400*time.Millisecond {
		t.Fatalf("late event: latency %v lag %v, want 700ms and 400ms", lat, lag)
	}
	// Started early (never by the writer, which sleeps until due): no
	// negative lag.
	if _, lag = o.account(1, start, start.Add(time.Second)); lag != 0 {
		t.Fatalf("early event lag %v, want 0", lag)
	}
}
