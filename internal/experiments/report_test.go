package experiments

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"commguard/internal/metrics"
	"commguard/internal/obs/hist"
	"commguard/internal/sim"
)

func sampleResults() *AllResults {
	return &AllResults{
		Fig3: []Fig3Row{
			{Protection: sim.ErrorFree, MeanPSNR: 36.2, Completed: true},
			{Protection: sim.CommGuard, MeanPSNR: 20.3, Completed: true},
		},
		Fig7: &Fig7Result{MTBE: 512e3, PSNR: 19.9, Pads: 100, Discards: 50, Realignments: 3},
		Fig8: []*QualitySeries{{
			App: "jpeg", Metric: "PSNR", ErrorFreeDB: 36.2,
			Points: []QualityPoint{{MTBE: 64e3, FrameScale: 1,
				Quality:   metrics.Summary{Mean: 11, StdDev: 0.5, N: 5},
				LossRatio: metrics.Summary{Mean: 0.03, N: 5}}},
		}},
		Fig9:  []Fig9Point{{MTBE: 128e3, PSNR: 13.2}},
		Fig10: []*QualitySeries{{App: "mp3", Metric: "SNR", ErrorFreeDB: math.Inf(1), Points: []QualityPoint{{MTBE: 64e3, FrameScale: 1, Quality: metrics.Summary{Mean: 4.3}}}}},
		Fig12: []Fig12Row{{App: "jpeg", LoadRatio: 0.0001, StoreRatio: 0.0002}},
		Fig13: []Fig13Row{{App: "mp3", FrameScale: 1, OverheadPct: -2.7}},
		Fig14: []Fig14Row{{App: "fft", FSMCounter: 0.09, ECC: 0.009, HeaderBit: 0.09, Total: 0.19}},
		FigABFT: []FigABFTPoint{{App: "mp3", Protection: sim.ABFT, MTBE: 64e3,
			Quality: metrics.Summary{Mean: 3.4, N: 2}, Overhead: 0.0772, Corrections: 1.5}},
		FigDetectLat: []FigDetectLatPoint{{App: "jpeg", Protection: sim.CommGuard, MTBE: 64e3,
			Runs: 2, Detections: 3, Items: hist.Summary{P50: 12, P99: 2028}}},
		FigCoder: []FigCoderPoint{{App: "jpeg", Coder: "ldpc-48-3-9", MTBE: 512e3,
			Quality: metrics.Summary{Mean: 19.5, StdDev: 0.4, N: 2}, ECCOverhead: 0.0021}},
	}
}

func TestWriteCSVProducesAllFiles(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSV(dir, sampleResults()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure3.csv", "figure7.csv", "figure8.csv", "figure9.csv",
		"figure10.csv", "figure12.csv", "figure13.csv", "figure14.csv", "figureabft.csv",
		"figuredetectlat.csv", "figurecoder.csv"} {
		path := filepath.Join(dir, name)
		fd, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		rows, err := csv.NewReader(fd).ReadAll()
		fd.Close()
		if err != nil {
			t.Fatalf("%s unparsable: %v", name, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s has no data rows", name)
		}
	}
	// figure11.csv intentionally absent (nil in sample).
	if _, err := os.Stat(filepath.Join(dir, "figure11.csv")); err == nil {
		t.Error("figure11.csv written despite nil data")
	}
}

func TestWriteCSVInfinityEncoding(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCSV(dir, sampleResults()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "inf") {
		t.Error("infinite error-free baseline not encoded as inf")
	}
}

func TestWriteMarkdownStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# CommGuard regenerated results",
		"## Figure 3",
		"## Figure 7",
		"## Figure 8",
		"## Figure 9",
		"## Figure 10",
		"## Figure 12",
		"## Figure 13",
		"## Figure 14",
		"## Figure ABFT",
		"## Figure DetectLat",
		"## Figure Coder",
		"| error-free | 36.2 |",
		"| mp3 | x1 | 64k | 4.3 | 0.00 |",
		"| jpeg | ldpc-48-3-9 | 512k | 19.5 dB | 0.210% |",
		"| mp3 | abft | 64k | 3.4 dB | 7.72% | 1.5 |",
		"| jpeg | commguard | 64k | 2 | 3 | 12 | 2028 |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	if strings.Contains(out, "Figure 11") {
		t.Error("nil figure rendered")
	}
}
