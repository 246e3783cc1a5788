package experiments

import (
	"math"
	"testing"
)

func TestFig13MeanOverheadKeepsNegatives(t *testing.T) {
	cases := []struct {
		name string
		rows []Fig13Row
		want float64
	}{
		{"no rows", nil, 0},
		{"no default-frame rows", []Fig13Row{{App: "fft", FrameScale: 4, OverheadPct: 3}}, 0},
		{"one negative row", []Fig13Row{
			{App: "fft", FrameScale: 1, OverheadPct: 4},
			{App: "jpeg", FrameScale: 1, OverheadPct: -2},
			{App: "mp3", FrameScale: 1, OverheadPct: 1},
			{App: "fft", FrameScale: 4, OverheadPct: 90}, // other scales are ignored
		}, 1},
	}
	for _, tc := range cases {
		if got := fig13MeanOverhead(tc.rows); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: fig13MeanOverhead = %v, want %v", tc.name, got, tc.want)
		}
	}
}
