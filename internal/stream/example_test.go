package stream_test

import (
	"fmt"
	"time"

	"commguard/internal/queue"
	"commguard/internal/stream"
)

// Build a three-stage pipeline, solve its steady-state schedule, and run
// it error-free over plain queues.
func Example() {
	data := make([]uint32, 12)
	for i := range data {
		data[i] = uint32(i)
	}
	g := stream.NewGraph()
	double := stream.NewFuncFilter("double", 3, 3, 30, func(in, out [][]uint32) {
		for i, v := range in[0] {
			out[0][i] = 2 * v
		}
	})
	sink := stream.NewSink("sink", 4)
	if _, err := g.Chain(stream.NewSource("src", 2, data), double, sink); err != nil {
		panic(err)
	}

	sched, err := stream.Solve(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("multiplicities:", sched.Multiplicity)

	qcfg := queue.Config{WorkingSets: 2, WorkingSetUnits: 16, ProtectPointers: true, Timeout: time.Second}
	eng, err := stream.NewEngine(g, stream.EngineConfig{Transport: &stream.PlainTransport{Queue: qcfg}})
	if err != nil {
		panic(err)
	}
	if _, err := eng.Run(); err != nil {
		panic(err)
	}
	fmt.Println("output:", sink.Collected())
	// Output:
	// multiplicities: [6 4 3]
	// output: [0 2 4 6 8 10 12 14 16 18 20 22]
}

// The balance equations reject graphs with no steady state.
func ExampleSolve_inconsistent() {
	g := stream.NewGraph()
	a := g.Add(stream.NewSource("src", 1, nil))
	dup := g.Add(stream.NewDuplicateSplitter("dup", 1, 2))
	join := g.Add(stream.NewRoundRobinJoiner("join", 2, 1))
	sink := g.Add(stream.NewSink("sink", 3))
	g.Connect(a, 0, dup, 0)
	g.SplitJoin(dup, join, nil, nil)
	g.Connect(join, 0, sink, 0)
	_, err := stream.Solve(g)
	fmt.Println(err != nil)
	// Output: true
}
