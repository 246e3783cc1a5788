// Quickstart: build a tiny streaming pipeline, run it on error-prone
// cores, and watch CommGuard convert catastrophic misalignment into
// bounded data errors.
//
// The pipeline squares a ramp of numbers through two filters. We run it
// three times: error-free, with errors over a reliable-but-unchecked
// queue, and with errors under CommGuard — then compare how much of the
// output survived.
package main

import (
	"fmt"
	"log"
	"time"

	"commguard/internal/commguard"
	"commguard/internal/fault"
	"commguard/internal/queue"
	"commguard/internal/stream"
)

func buildPipeline(n int) (*stream.Graph, *stream.Sink) {
	data := make([]uint32, n)
	for i := range data {
		data[i] = uint32(i)
	}
	g := stream.NewGraph()
	// A filter is one whole-firing kernel: it reads a firing's popped
	// items from in and writes its pushed items to out (here 4 each per
	// firing; the engine may hand it several firings in one call).
	square := stream.NewFuncFilter("square", 4, 4, 50, func(in, out [][]uint32) {
		for i, v := range in[0] {
			out[0][i] = v * v
		}
	})
	sink := stream.NewSink("collect", 8)
	if _, err := g.Chain(stream.NewSource("ramp", 8, data), square, sink); err != nil {
		log.Fatal(err)
	}
	return g, sink
}

func run(name string, transport stream.Transport, mtbe float64) []uint32 {
	g, sink := buildPipeline(4096)
	cfg := stream.EngineConfig{Transport: transport}
	if mtbe > 0 {
		model := fault.DefaultModel(true)
		cfg.NewInjector = func(core int) *fault.Injector {
			return fault.NewInjector(mtbe, fault.CoreSeed(2015, core), model)
		}
	}
	eng, err := stream.NewEngine(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := eng.Run()
	if err != nil {
		log.Fatal(err)
	}
	out := sink.Collected()
	correct := 0
	for i, v := range out {
		if v == uint32(i*i) {
			correct++
		}
	}
	fmt.Printf("%-24s %5d/%d items correct (%.1f%%), %d instructions\n",
		name, correct, 4096, 100*float64(correct)/4096, stats.TotalInstructions())
	return out
}

func main() {
	qcfg := queue.Config{WorkingSets: 4, WorkingSetUnits: 64, ProtectPointers: true, Timeout: 100 * time.Millisecond}

	fmt.Println("quickstart: 3-stage pipeline squaring 4096 numbers, MTBE 3000 instructions/core")
	fmt.Println()
	run("error-free", &stream.PlainTransport{Queue: qcfg}, 0)
	run("errors, no CommGuard", &stream.PlainTransport{Queue: qcfg}, 3000)
	tr := commguard.NewTransport(qcfg)
	run("errors, CommGuard", tr, 3000)

	s := tr.Stats()
	fmt.Printf("\nCommGuard activity: %d headers inserted, %d realignments, %d items padded, %d discarded\n",
		s.HI.HeadersInserted, s.AM.Realignments, s.AM.PaddedItems, s.AM.DiscardedItems)
	fmt.Println("\nWithout CommGuard a single miscounted push shifts every later item;")
	fmt.Println("with CommGuard the damage ends at the next frame boundary.")
}
