package check

import (
	"testing"

	"commguard/internal/queue"
	"commguard/internal/stream"
)

// fuzzInput deterministically decodes a graph + queue geometry from fuzz
// bytes. The shapes it can produce cover every rule's trigger: zero rates
// (CG002), undersized queues (CG003/CG006), dangling extra nodes and
// disconnected components (CG001), and clean runnable pipelines.
type fuzzInput struct {
	data []byte
	pos  int
}

func (in *fuzzInput) next() byte {
	if in.pos >= len(in.data) {
		return 0
	}
	b := in.data[in.pos]
	in.pos++
	return b
}

// buildFuzzGraph derives a small graph and queue config from seed bytes.
func buildFuzzGraph(data []byte) (*stream.Graph, queue.Config) {
	in := &fuzzInput{data: data}

	g := stream.NewGraph()
	// A chain of 2..6 nodes with byte-chosen rates in 0..15 (0 provokes
	// CG002; the rest keeps multiplicities small enough to execute).
	nFilters := int(in.next() % 4)
	filters := []stream.Filter{stream.NewSource("src", int(in.next()%16), make([]uint32, 64))}
	for i := 0; i < nFilters; i++ {
		filters = append(filters, stream.NewIdentity("id", int(in.next()%16)))
	}
	filters = append(filters, stream.NewSink("sink", int(in.next()%16)))
	if _, err := g.Chain(filters...); err != nil {
		// Chain only errors on self-loops, which it cannot produce.
		panic(err)
	}

	switch in.next() % 4 {
	case 1: // dangling node
		g.Add(stream.NewSink("dangling", 1))
	case 2: // disconnected second component
		if _, err := g.Chain(stream.NewSource("src2", 1, nil), stream.NewSink("sink2", 1)); err != nil {
			panic(err)
		}
	}

	qc := queue.Config{
		WorkingSets:     int(in.next() % 10), // 0..1 are invalid -> CG003
		WorkingSetUnits: int(in.next() % 65),
	}
	if qc == (queue.Config{}) {
		// Run() documents that the zero value falls back to the default
		// geometry; the engine run must see the same resolution.
		qc = queue.DefaultConfig()
	}
	return g, qc
}

// FuzzGraphCheck asserts two properties over arbitrary graph shapes:
//
//  1. the checker never panics, whatever the graph looks like;
//  2. the checker is sound for clean graphs: a report with zero findings
//     (warnings included) implies the graph schedules (stream.Solve) and a
//     short sequential engine run completes. No CG001/CG002/CG006-error
//     means Solve succeeds; no CG003/CG006-warning means every queue holds
//     a full steady-state frame, which is exactly RunSequential's
//     precondition.
func FuzzGraphCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, 4, 0, 4, 8})        // clean pipeline
	f.Add([]byte{1, 3, 0, 5, 0, 2, 1})     // zero-rate mid-chain
	f.Add([]byte{2, 2, 2, 2, 1, 9, 64})    // dangling sink
	f.Add([]byte{3, 7, 3, 11, 2, 2, 1})    // tiny queue
	f.Add([]byte{0, 15, 13, 11, 9, 9, 64}) // coprime rates, big mults
	f.Add([]byte{1, 1, 1, 1, 1, 0, 0})     // invalid queue geometry
	f.Fuzz(func(t *testing.T, data []byte) {
		g, qc := buildFuzzGraph(data)
		cfg := Config{Queue: qc}
		report := Run(g, cfg) // property 1: must not panic
		if !report.Clean() {
			return
		}
		// Property 2: a clean report promises a runnable graph.
		if _, err := stream.Solve(g); err != nil {
			t.Fatalf("checker clean but Solve failed: %v\ngraph bytes %v", err, data)
		}
		eng, err := stream.NewEngine(g, stream.EngineConfig{
			Transport:  &stream.PlainTransport{Queue: qc},
			Iterations: 2,
		})
		if err != nil {
			t.Fatalf("checker clean but NewEngine failed: %v\ngraph bytes %v", err, data)
		}
		if _, err := eng.RunSequential(); err != nil {
			t.Fatalf("checker clean but sequential run failed: %v\ngraph bytes %v", err, data)
		}
	})
}
