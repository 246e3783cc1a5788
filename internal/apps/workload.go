package apps

import "sync"

// workload is a benchmark's input: the source tape and, for jpeg and mp3,
// the original media the output is scored against. It is a deterministic
// function of the benchmark's config, and instances only read it (a
// stream.Source copies out of its tape, Quality reads the reference), so
// every instance built from one config shares one workload.
type workload struct {
	tape []uint32
	ref  []float64
}

// workloads memoizes each generated workload for the life of the process,
// keyed by the benchmark's config struct value. The config's type is part
// of the key, so two benchmarks' configs never collide.
var workloads = struct {
	mu sync.Mutex
	m  map[any]*workloadEntry
}{m: map[any]*workloadEntry{}}

type workloadEntry struct {
	once sync.Once
	w    workload
	err  error
}

// loadWorkload returns cfg's workload, calling gen only the first time a
// config is asked for. Concurrent first requests for one config wait for a
// single generation. A failed generation is not kept: the error goes to
// everyone waiting on it, and the next request generates again.
func loadWorkload[C comparable](cfg C, gen func(C) (workload, error)) (workload, error) {
	workloads.mu.Lock()
	e, ok := workloads.m[cfg]
	if !ok {
		e = &workloadEntry{}
		workloads.m[cfg] = e
	}
	workloads.mu.Unlock()

	e.once.Do(func() { e.w, e.err = gen(cfg) })
	if e.err != nil {
		workloads.mu.Lock()
		if workloads.m[cfg] == e {
			delete(workloads.m, cfg)
		}
		workloads.mu.Unlock()
	}
	return e.w, e.err
}

// sharedTape is loadWorkload for the benchmarks whose tape generator
// cannot fail and which carry no reference.
func sharedTape[C comparable](cfg C, gen func(C) []uint32) []uint32 {
	w, _ := loadWorkload(cfg, func(c C) (workload, error) { return workload{tape: gen(c)}, nil })
	return w.tape
}
