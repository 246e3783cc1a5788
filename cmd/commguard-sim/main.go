// Command commguard-sim runs one benchmark application on the simulated
// error-prone multiprocessor under a chosen protection configuration and
// reports output quality, error-injection activity and CommGuard
// statistics.
//
// Example:
//
//	commguard-sim -app jpeg -protection commguard -mtbe 512000 -seed 1
//	commguard-sim -app mp3 -protection reliable-queue -mtbe 1000000
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"commguard/internal/apps"
	"commguard/internal/ecc"
	"commguard/internal/media"
	"commguard/internal/obs"
	"commguard/internal/sim"
	"commguard/internal/stream"
	"commguard/internal/viz"
)

func main() {
	var (
		appName    = flag.String("app", "jpeg", "benchmark: "+strings.Join(apps.BuiltinNames(), "|"))
		protection = flag.String("protection", "commguard", "protection: error-free|software-queue|reliable-queue|commguard|abft")
		mtbe       = flag.Float64("mtbe", 512_000, "per-core mean instructions between errors (0 = error-free)")
		seed       = flag.Int64("seed", 1, "error-injection seed")
		scale      = flag.Int("scale", 1, "frame-size scale (1, 2, 4, 8)")
		verbose    = flag.Bool("v", false, "print per-core statistics")
		outPath    = flag.String("out", "", "dump the decoded output (jpeg: .ppm image; mp3/audio apps: .wav)")
		frames     = flag.Bool("frames", false, "print a per-frame damage map vs the reference (the Fig. 7 view)")
		trace      = flag.String("trace", "", "record an event trace and write <base>.trace.json (Perfetto), <base>.jsonl (diag schema), <base>.snapshot.json (run telemetry); also prints the applied-error timeline and AM state timelines")
		sequential = flag.Bool("sequential", false, "bit-reproducible single-goroutine execution (static schedule)")
		coder      = flag.String("coder", "", "ECC backend protecting headers and shared pointers: hamming (default), ldpc, or ldpc-N-WC-WR")

		health        = flag.Bool("health", false, "collect runtime-health latency histograms (queue waits, firing durations, fault→detection latency), print their quantiles and add them to the snapshot's latency section")
		flight        = flag.String("flight", "", "arm an anomaly-triggered flight recorder: trace rings run continuously, and a fired trigger writes the trace pair and <base>.snapshot.json (with a flight section naming the triggers) at this artifact base")
		flightQuality = flag.Float64("flight-quality", 0, "with -flight: trigger when output quality falls below this floor (dB, 0 disables)")
		flightSlow    = flag.Float64("flight-slowpath", 0, "with -flight: trigger when queue timeouts exceed this rate per 1000 delivered items (0 disables)")
		flightStorm   = flag.Float64("flight-storm", 0, "with -flight: trigger when manifested faults exceed this rate per 1000 committed instructions (0 disables)")
	)
	flag.Parse()

	var fopts *obs.FlightOptions
	if *flight != "" {
		fopts = &obs.FlightOptions{
			Path:              *flight,
			Watchdog:          true,
			QualityFloorDB:    *flightQuality,
			SlowPathPerKItems: *flightSlow,
			FaultsPerKInstr:   *flightStorm,
		}
	} else if *flightQuality != 0 || *flightSlow != 0 || *flightStorm != 0 {
		fmt.Fprintln(os.Stderr, "commguard-sim: -flight-quality/-flight-slowpath/-flight-storm require -flight")
		os.Exit(2)
	}

	if err := run(*appName, *protection, *coder, *mtbe, *seed, *scale, *verbose, *outPath, *trace, *frames, *sequential, *health, fopts); err != nil {
		fmt.Fprintln(os.Stderr, "commguard-sim:", err)
		os.Exit(1)
	}
}

func parseProtection(s string) (sim.Protection, error) {
	switch strings.ToLower(s) {
	case "error-free", "a":
		return sim.ErrorFree, nil
	case "software-queue", "b":
		return sim.SoftwareQueue, nil
	case "reliable-queue", "c":
		return sim.ReliableQueue, nil
	case "commguard", "d":
		return sim.CommGuard, nil
	case "abft", "e":
		return sim.ABFT, nil
	}
	return 0, fmt.Errorf("unknown protection %q", s)
}

func run(appName, protection, coder string, mtbe float64, seed int64, scale int, verbose bool, outPath, tracePath string, frames, sequential, health bool, fopts *obs.FlightOptions) error {
	b, ok := apps.ByName(appName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", appName)
	}
	prot, err := parseProtection(protection)
	if err != nil {
		return err
	}
	if _, err := ecc.ParseCoder(coder); err != nil {
		return err
	}
	tracing := tracePath != ""
	cfg := sim.Config{Protection: prot, MTBE: mtbe, Seed: seed, FrameScale: scale, Coder: coder, Trace: tracing, Sequential: sequential, Health: health, Flight: fopts}
	res, err := sim.RunBenchmark(b, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("benchmark      %s\n", res.App)
	fmt.Printf("protection     %s\n", res.Protection)
	if prot != sim.ErrorFree {
		fmt.Printf("MTBE           %.0f instructions/core\n", res.MTBE)
		fmt.Printf("seed           %d\n", res.Seed)
	}
	fmt.Printf("frame scale    x%d\n", res.FrameScale)
	if coder != "" {
		fmt.Printf("coder          %s\n", ecc.MustCoder(coder).Name())
	}
	fmt.Printf("iterations     %d steady-state frames\n", res.Run.Iterations)
	fmt.Printf("instructions   %d committed across %d cores\n", res.Run.TotalInstructions(), len(res.Run.Cores))
	fmt.Printf("wall clock     %s\n", res.Run.Elapsed)

	injected := uint64(0)
	for _, c := range res.Run.Cores {
		injected += c.Errors.Total()
	}
	fmt.Printf("errors         %d injected\n", injected)
	if prot != sim.ErrorFree || res.App == "jpeg" || res.App == "mp3" {
		if math.IsNaN(res.Quality) {
			fmt.Printf("quality        n/a (no reference) %s\n", res.Metric)
		} else {
			fmt.Printf("quality        %.2f dB %s\n", res.Quality, res.Metric)
		}
	}
	if prot == sim.ABFT {
		var abft stream.ABFTStats
		for _, c := range res.Run.Cores {
			abft.Add(c.ABFT)
		}
		fmt.Printf("abft           %d corrections (checksum ops %d, recompute ops %d)\n",
			abft.Corrections, abft.ChecksumOps, abft.RecomputeOps)
	}
	if res.Guard != nil {
		g := res.Guard
		fmt.Printf("headers        %d inserted (%d end-of-computation)\n", g.HI.HeadersInserted, g.HI.EOCInserted)
		fmt.Printf("realignments   %d (padded %d items, discarded %d items)\n",
			g.AM.Realignments, g.AM.PaddedItems, g.AM.DiscardedItems)
		fmt.Printf("data loss      %.4f%% of delivered items\n", 100*res.DataLossRatio())
		fmt.Printf("suboperations  FSM/counter %d, ECC %d, header-bit %d\n",
			g.Ops.FSMCounter, g.Ops.ECC, g.Ops.HeaderBit)
	}
	if verbose {
		fmt.Println("\nper-core statistics:")
		for _, c := range res.Run.Cores {
			fmt.Printf("  %-22s instr=%-10d firings=%-8d skipped=%-3d repeated=%-3d errors=%d\n",
				c.Node, c.Instructions, c.Firings, c.SkippedFirings, c.RepeatedFirings, c.Errors.Total())
		}
		qt := res.Run.QueueTotals()
		fmt.Printf("\nqueue totals: %d item stores, %d item loads, %d header stores, %d header loads, %d pointer-ECC ops\n",
			qt.ItemStores, qt.ItemLoads, qt.HeaderStores, qt.HeaderLoads, qt.PointerECCOps)
		fmt.Printf("timeouts: %d push, %d pop; forced overwrites: %d; corrected pointer errors: %d\n",
			qt.PushTimeouts, qt.PopTimeouts, qt.ForcedOverwrites, qt.CorrectedPointerErrors)
	}
	if tracing {
		if err := writeTrace(tracePath, res, cfg); err != nil {
			return err
		}
	}
	if frames {
		// The damage map compares against the error-free *decode* (for the
		// media benchmarks the quality reference is the original media,
		// which differs everywhere by quantization).
		cleanInst, err := b.New()
		if err != nil {
			return err
		}
		cleanRes, err := sim.Run(cleanInst, sim.Config{Protection: sim.ErrorFree, FrameScale: scale, Sequential: sequential}, nil)
		if err != nil {
			return err
		}
		frameLen := frameLenFor(res.App, len(cleanRes.Output))
		m := viz.FrameMap(cleanRes.Output, res.Output, frameLen, frameTolFor(res.App))
		fmt.Printf("frame map      %d/%d frames hit ('.'=clean 'x'=hit '-'=missing)\n",
			viz.CorruptedFrames(m), len(m))
		fmt.Printf("  %s\n", m)
	}
	if health {
		fmt.Println("\nruntime-health latency histograms:")
		fmt.Printf("  %-16s %10s %12s %12s %12s %6s\n", "histogram", "count", "p50", "p90", "p99", "unit")
		for _, s := range res.Health {
			fmt.Printf("  %-16s %10d %12.0f %12.0f %12.0f %6s\n", s.Name, s.Count, s.P50, s.P90, s.P99, s.Unit)
		}
	}
	if fopts != nil {
		if len(res.FlightDumps) > 0 {
			fmt.Printf("flight         TRIGGERED -> %s\n", strings.Join(res.FlightDumps, ", "))
		} else {
			fmt.Println("flight         armed, no trigger fired (no artifacts written)")
		}
	}
	if outPath != "" {
		if err := dumpOutput(outPath, res); err != nil {
			return err
		}
		fmt.Printf("output         written to %s\n", outPath)
	}
	return nil
}

// writeTrace prints the applied-error timeline (the trace's fault events
// by core, then instruction count), writes the run's artifacts next to
// base, and prints the per-consumer AM state timelines.
func writeTrace(base string, res *sim.Result, cfg sim.Config) error {
	if res.Trace == nil {
		return fmt.Errorf("no trace was recorded")
	}
	var faults []obs.Event
	for _, e := range res.Trace.Events {
		if e.Kind == obs.KindFault {
			faults = append(faults, e)
		}
	}
	sort.SliceStable(faults, func(i, j int) bool {
		if faults[i].Core != faults[j].Core {
			return faults[i].Core < faults[j].Core
		}
		return faults[i].Arg2 < faults[j].Arg2
	})
	fmt.Printf("\nerror timeline (%d events):\n", len(faults))
	for _, e := range faults {
		fmt.Printf("  core %-2d %-24s frame %-5d instr %-10d %s\n",
			e.Core, res.Trace.CoreName(e.Core), e.FC, e.Arg2, obs.FaultClassName(e.Arg))
	}
	if res.Trace.Dropped > 0 {
		fmt.Printf("  (the trace dropped %d records: the timeline may be missing early faults)\n", res.Trace.Dropped)
	}
	paths, err := res.WriteArtifacts(base, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("\ntrace          %d events (%d dropped) -> %s\n",
		len(res.Trace.Events), res.Trace.Dropped, strings.Join(paths, ", "))
	seqs := res.Trace.AMSequences()
	if len(seqs) > 0 {
		fmt.Printf("\nAM state timelines (%s):\n", viz.TimelineLegend())
		for _, seq := range seqs {
			fmt.Printf("  q%-3d %-32s %s\n", seq.Queue, seq.Name, viz.StateTimeline(seq.States))
		}
	}
	return nil
}

// frameLenFor returns the output samples per steady-state frame of each
// benchmark (one sink firing's worth).
func frameLenFor(app string, _ int) int {
	switch app {
	case "jpeg":
		cfg := apps.DefaultJPEGConfig()
		return 3 * cfg.W * 8 // one 8-pixel-high row of RGB
	case "mp3":
		return 256
	case "fft":
		return 64
	default:
		// Per-sample apps: group output into 64-sample frames for display.
		return 64
	}
}

// frameTolFor allows tiny float drift for the DSP benchmarks while keeping
// the media benchmarks exact.
func frameTolFor(app string) float64 {
	switch app {
	case "jpeg":
		// Mark a row as hit only for visible damage (more than a few
		// intensity levels), not single-level rounding differences.
		return 8
	default:
		return 1e-6
	}
}

// dumpOutput writes the run's decoded output in an inspectable format:
// jpeg as a PPM image, the audio benchmarks as 16-bit WAV.
func dumpOutput(path string, res *sim.Result) error {
	if res.App == "jpeg" {
		cfg := apps.DefaultJPEGConfig()
		return media.WritePPMFile(path, media.PixelsToImage(res.Output, cfg.W, cfg.H))
	}
	// Audio-like outputs are float sample streams.
	return media.WriteWAVFile(path, res.Output, 44100)
}
