package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"commguard/internal/campaign"
)

// Every journaled figure must keep expanding the job keys that journals
// already on disk carry, so they resume as a pure skip. Each digest is
// the first 8 bytes of sha256 over the figure's sorted QuickOptions keys
// joined by newlines.
func TestSweepJournalKeysStable(t *testing.T) {
	want := map[string]string{
		"fig3":      "3afa2d8c57201068",
		"fig8":      "9b81df0bd6de2c28",
		"fig9":      "8d4987bc35a2933e",
		"fig10":     "bfddfd8436d075c5",
		"fig11":     "e2afe15dd56d9785",
		"fig12":     "bb5499ce4fbfb45f",
		"fig14":     "fc8752fb62902302",
		"figabft":   "3c1fb45b01ee1d56",
		"detectlat": "42a664263751b154",
		"figcoder":  "f82c1bf5b71a2b7f",
	}
	j, err := campaign.Open(filepath.Join(t.TempDir(), "journal.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	o := QuickOptions()
	o.Sequential = true
	o.Campaign = &campaign.Runner{Parallel: o.parallel(), Journal: j}
	for _, name := range []string{"3", "8", "9", "10", "11", "12", "14", "abft", "detectlat", "coder"} {
		if _, err := Run(name, o); err != nil {
			t.Fatalf("-fig %s: %v", name, err)
		}
	}
	byFig := map[string][]string{}
	for _, k := range j.Keys() {
		fig, _, _ := strings.Cut(k, "/")
		byFig[fig] = append(byFig[fig], k)
	}
	for fig, keys := range byFig {
		if _, ok := want[fig]; !ok {
			t.Errorf("unexpected journaled figure %q", fig)
		}
		sort.Strings(keys)
		sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
		if got := hex.EncodeToString(sum[:8]); got != want[fig] {
			t.Errorf("%s: %d keys, digest %s, want %s", fig, len(keys), got, want[fig])
		}
	}
	for fig := range want {
		if byFig[fig] == nil {
			t.Errorf("%s journaled no jobs", fig)
		}
	}
}

// -fig sensitivity and -fig critweight run on the sweep engine: they
// honor -sequential (two regenerations print byte-identical tables) and
// journal through a campaign, so a resumed run replays every job and
// prints the same table.
func TestAblationsSequentialReproducible(t *testing.T) {
	for _, name := range []string{"sensitivity", "critweight"} {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		render := func(journal, resume bool) (string, campaign.Stats) {
			o := QuickOptions()
			o.Seeds = 1
			o.Sequential = true
			var buf bytes.Buffer
			o.Out = &buf
			stats := &campaign.Stats{}
			if journal {
				j, err := campaign.Open(path, resume)
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()
				o.Campaign = &campaign.Runner{Parallel: 2, Journal: j, Stats: stats}
			}
			if _, err := Run(name, o); err != nil {
				t.Fatalf("-fig %s: %v", name, err)
			}
			return buf.String(), stats.Snapshot()
		}
		plain, _ := render(false, false)
		fresh, s1 := render(true, false)
		resumed, s2 := render(true, true)
		if plain != fresh || fresh != resumed {
			t.Errorf("-fig %s -sequential not reproducible:\n--- plain\n%s--- journaled\n%s--- resumed\n%s", name, plain, fresh, resumed)
		}
		if s1.Completed == 0 || s2.Completed != 0 || s2.Skipped != s1.Completed {
			t.Errorf("-fig %s: journaled run %+v, resume %+v; want a pure skip of every job", name, s1, s2)
		}
	}
}
