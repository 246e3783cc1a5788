package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"time"

	"commguard/internal/sim"
)

// goldenSeedBases are the seed bases golden.json covers. Any other base
// runs unverified against golden and is repeat-checked instead.
var goldenSeedBases = []uint64{1, 2}

//go:embed golden.json
var goldenJSON []byte

// goldenFile is golden.json: per seed base, one digest per job of the
// fault-campaign list, in job order, as 16 hex digits.
type goldenFile struct {
	Jobs      int                 `json:"jobs"`
	SeedBases map[string][]string `json:"seed_bases"`
}

// digest fingerprints everything a fault-injected run decides: the output
// and quality bits, the Alignment Manager's pad, discard and realignment
// counts, and every core's ABFT corrections and injected-fault counts.
func digest(res *sim.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range res.Output {
		put(math.Float64bits(v))
	}
	put(math.Float64bits(res.Quality))
	if g := res.Guard; g != nil {
		put(g.AM.PaddedItems)
		put(g.AM.DiscardedItems)
		put(g.AM.Realignments)
	}
	for _, c := range res.Run.Cores {
		put(c.ABFT.Corrections)
		for _, n := range c.Errors {
			put(n)
		}
	}
	return h.Sum64()
}

// loadGolden returns the golden digests of w's job list for a seed base,
// or nil when golden.json has none for it.
func loadGolden(w *workload, seedBase uint64) ([]uint64, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	hexes, ok := g.SeedBases[strconv.FormatUint(seedBase, 10)]
	if !ok {
		return nil, nil
	}
	if g.Jobs != w.jobs() || len(hexes) != w.jobs() {
		return nil, fmt.Errorf("golden.json holds %d digests for seed base %d, the %s job list has %d; regenerate it with -write-golden",
			len(hexes), seedBase, w.name, w.jobs())
	}
	out := make([]uint64, len(hexes))
	for i, s := range hexes {
		v, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("golden.json: seed base %d job %d: %w", seedBase, i, err)
		}
		out[i] = v
	}
	return out, nil
}

// writeGolden runs the whole fault-campaign job list once per golden seed
// base and writes the digests to path.
func writeGolden(path string) error {
	w := workloadByName("fault-campaign")
	g := goldenFile{Jobs: w.jobs(), SeedBases: map[string][]string{}}
	for _, base := range goldenSeedBases {
		b, err := prepare(w, base, false)
		if err != nil {
			return err
		}
		cursor := 0
		recs, _ := b.run(&cursor, func(next int, _ time.Duration) bool { return next == w.jobs() }, nil)
		hexes := make([]string, w.jobs())
		for _, r := range recs {
			if r.err != nil {
				return fmt.Errorf("seed base %d job %d: %w", base, r.job, r.err)
			}
			hexes[r.job] = fmt.Sprintf("%016x", r.digest)
		}
		g.SeedBases[strconv.FormatUint(base, 10)] = hexes
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
