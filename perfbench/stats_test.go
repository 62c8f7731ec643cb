package main

import (
	"math"
	"testing"
)

// seq returns 1, 2, ..., n in reverse order, so the functions under
// test must sort.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(10), 50, 5},
		{seq(10), 90, 9},
		{seq(10), 91, 10},
		{seq(10), 100, 10},
		{seq(10), 1, 1},
		{seq(4), 50, 2},
		{[]float64{15, 20, 35, 40, 50}, 30, 20},
		{[]float64{15, 20, 35, 40, 50}, 40, 20},
		{[]float64{15, 20, 35, 40, 50}, 50, 35},
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n, pct int
		want   float64
	}{
		{1000, 99, 990}, // rank 990 leaves exactly 10 above
		{999, 98, 980},  // p99's rank 990 would leave 9
		{400, 97, 388},
		{100, 90, 90},
		{20, 50, 10}, // the lowest percentile that qualifies
		{19, 100, 19},
		{2, 100, 2},
	}
	for _, c := range cases {
		got, pct := tail(seq(c.n))
		if got != c.want || pct != c.pct {
			t.Errorf("tail of %d samples = p%d %g, want p%d %g", c.n, pct, got, c.pct, c.want)
		}
		if pct < 100 && c.n-int(got) < tailBeyond {
			t.Errorf("tail of %d samples leaves %d beyond", c.n, c.n-int(got))
		}
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
		{nil, 0},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestBusyFrac(t *testing.T) {
	cases := []struct {
		cell, wall float64
		workers    int
		want       float64
	}{
		{10, 5, 2, 1},
		{6, 4, 2, 0.75},
		{3, 4, 1, 0.75},
		{1, 0, 2, 0},
		{1, 1, 0, 0},
	}
	for _, c := range cases {
		if got := busyFrac(c.cell, c.wall, c.workers); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("busyFrac(%g, %g, %d) = %g, want %g", c.cell, c.wall, c.workers, got, c.want)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	cases := []struct {
		failed, attempted int
		want              float64
	}{
		{0, 10, 0},
		{1, 4, 0.25},
		{3, 3, 1},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := failedFrac(c.failed, c.attempted); got != c.want {
			t.Errorf("failedFrac(%d, %d) = %g, want %g", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.job(0.5, 2, 100, true)
	tl.job(0.25, 1, 50, false)
	tl.op(false)
	tl.addEvents(7)
	if tl.attempted != 3 || tl.failed != 2 || tl.cells != 3 || tl.events != 157 || len(tl.latencies) != 2 {
		t.Errorf("tally: attempted %d, failed %d, cells %d, events %d, %d latencies", tl.attempted, tl.failed, tl.cells, tl.events, len(tl.latencies))
	}
}
