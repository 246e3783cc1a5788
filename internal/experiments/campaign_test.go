package experiments

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"commguard/internal/apps"
	"commguard/internal/campaign"
)

// A campaign killed mid-flight and resumed must aggregate exactly what an
// uninterrupted campaign produces: journaled jobs are replayed, the
// remainder re-runs (sequential mode makes the re-runs bit-identical), and
// no job executes twice.
func TestCampaignResumeMatchesUninterrupted(t *testing.T) {
	opts := QuickOptions()
	opts.Sequential = true

	// Baseline: uninterrupted run, no campaign.
	want, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Full campaign run, journaling everything.
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	j, err := campaign.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	stats := &campaign.Stats{}
	opts.Campaign = &campaign.Runner{Parallel: 2, Journal: j, Stats: stats}
	full, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if got := stats.Snapshot(); got.Completed != int64(len(want)) {
		t.Fatalf("campaign completed %d jobs, want %d", got.Completed, len(want))
	}

	// Simulate a kill mid-campaign: keep only a prefix of the journal
	// (every line is fsynced, so a real kill -9 leaves exactly this plus
	// at most a torn tail, which Open drops).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	cut := 0
	for i, c := range data {
		if c == '\n' {
			lines++
			if lines == 2 {
				cut = i + 1
				break
			}
		}
	}
	truncated := filepath.Join(dir, "truncated.jsonl")
	// Append torn garbage past the prefix, as a mid-append kill would.
	if err := os.WriteFile(truncated, append(data[:cut], []byte(`{"key":"fig9/jp`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := campaign.Open(truncated, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("resumed journal has %d records, want 2", j2.Len())
	}
	stats2 := &campaign.Stats{}
	opts.Campaign = &campaign.Runner{Parallel: 2, Journal: j2, Stats: stats2}
	resumed, err := Figure9(opts)
	if err != nil {
		t.Fatal(err)
	}
	s2 := stats2.Snapshot()
	if s2.Skipped != 2 || s2.Completed != int64(len(want))-2 {
		t.Fatalf("resume ran %d and skipped %d jobs, want %d and 2", s2.Completed, s2.Skipped, len(want))
	}

	// All three result sets must be identical, point for point.
	for i := range want {
		if full[i] != want[i] {
			t.Errorf("campaign point %d = %+v, uninterrupted %+v", i, full[i], want[i])
		}
		if resumed[i] != want[i] {
			t.Errorf("resumed point %d = %+v, uninterrupted %+v", i, resumed[i], want[i])
		}
	}
	// And the journal must now hold each job exactly once.
	if j2.Len() != len(want) {
		t.Errorf("journal holds %d records after resume, want %d", j2.Len(), len(want))
	}
}

// sweepQuality's journaled payloads include +Inf qualities (self-referenced
// benchmarks produce bit-identical output at high MTBE); the resumed
// aggregation must reproduce them.
func TestCampaignSweepReplaysInfQuality(t *testing.T) {
	opts := QuickOptions()
	opts.Sequential = true
	opts.Seeds = 1
	opts.MTBEs = []float64{8192e3} // sparse errors: likely clean output
	b, err := opts.builder("complex-fir")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := campaign.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opts.Campaign = &campaign.Runner{Parallel: 1, Journal: j}
	first, err := sweepQuality(opts, "figtest", []apps.Builder{b}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := campaign.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	stats := &campaign.Stats{}
	opts.Campaign = &campaign.Runner{Parallel: 1, Journal: j2, Stats: stats}
	second, err := sweepQuality(opts, "figtest", []apps.Builder{b}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if s := stats.Snapshot(); s.Completed != 0 || s.Skipped != 1 {
		t.Fatalf("replay stats = %+v, want pure skip", s)
	}
	fq, sq := first[0].Points[0].Quality.Mean, second[0].Points[0].Quality.Mean
	if fq != sq && !(math.IsNaN(fq) && math.IsNaN(sq)) {
		t.Errorf("replayed quality mean %v != original %v", sq, fq)
	}
	if first[0].Metric != second[0].Metric {
		t.Errorf("replayed metric %q != original %q", second[0].Metric, first[0].Metric)
	}
}
