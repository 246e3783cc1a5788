// Command streamgraph inspects a benchmark's stream graph: topology,
// per-edge rates, and the steady-state schedule the balance equations
// produce (multiplicities and frame sizes per edge). Static verification
// of the graph lives in commguard-vet.
//
// Example:
//
//	streamgraph -app jpeg
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"commguard/internal/apps"
	"commguard/internal/fault"
	"commguard/internal/rely"
	"commguard/internal/stream"
)

func main() {
	appName := flag.String("app", "jpeg", "benchmark: "+strings.Join(apps.BuiltinNames(), "|"))
	mtbe := flag.Float64("mtbe", 0, "if > 0, print the Rely-style frame reliability analysis at this MTBE")
	flag.Parse()

	if err := run(*appName, *mtbe); err != nil {
		fmt.Fprintln(os.Stderr, "streamgraph:", err)
		os.Exit(1)
	}
}

func run(appName string, mtbe float64) error {
	b, ok := apps.ByName(appName)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", appName)
	}
	inst, err := b.New()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d nodes, %d edges\n\n", inst.Name, len(inst.Graph.Nodes), len(inst.Graph.Edges))
	fmt.Print(inst.Graph.String())

	sched, err := stream.Solve(inst.Graph)
	if err != nil {
		return err
	}
	fmt.Println("\nsteady-state schedule (one iteration = one application-wide frame):")
	for _, n := range inst.Graph.Nodes {
		fmt.Printf("  %-24s x%d firings\n", n.Name(), sched.Multiplicity[n.ID])
	}
	fmt.Println("\nper-edge frame sizes:")
	for _, e := range inst.Graph.Edges {
		fmt.Printf("  edge %2d %-20s -> %-20s %6d items/frame\n",
			e.ID, e.Src.Name(), e.Dst.Name(), sched.EdgeItems[e.ID])
	}
	fmt.Printf("\ntotal items per frame across all edges: %d\n", sched.FrameItems())

	if mtbe > 0 {
		a, err := rely.Analyze(inst.Graph, mtbe, fault.DefaultModel(true))
		if err != nil {
			return err
		}
		fmt.Printf("\nframe reliability analysis at MTBE %.0f instructions/core:\n", mtbe)
		for _, c := range a.Cores {
			fmt.Printf("  %-24s %8d instr/frame   P(error/frame) = %.4f\n",
				c.Node, c.InstructionsPerFrame, c.PFrameError)
		}
		fmt.Printf("P(output frame clean)        %.4f\n", a.PFrameClean)
		fmt.Printf("mean clean run               %.1f frames\n", a.FramesToReliability())
		fmt.Printf("expected realignment loss    %.4f%% of data\n", 100*a.ExpectedLossRatio)
		fmt.Printf("unguarded clean ratio        %.4f (100-frame stream; decays with length)\n",
			a.UnguardedCleanRatio(100))
	}
	return nil
}
