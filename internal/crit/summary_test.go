package crit

import (
	"testing"
)

func TestFieldEscape(t *testing.T) {
	m := analyze(t, filterHeader+`
type acc struct{ last uint32 }

func (a *acc) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	a.last = v
	out[0][0] = v
}
`, FilterMode)
	fm := filterByName(t, m, "apps.acc")
	if len(fm.Escapes) != 1 {
		t.Fatalf("want 1 escape, got %+v", fm.Escapes)
	}
	e := fm.Escapes[0]
	if e.Kind != EscapeField || e.Sink != "a.last" || e.Var != "v" {
		t.Errorf("escape = %+v, want field a.last <- v", e)
	}
}

func TestGlobalEscape(t *testing.T) {
	m := analyze(t, filterHeader+`
var lastSeen uint32

type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	lastSeen = v
	out[0][0] = v
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if len(fm.Escapes) != 1 || fm.Escapes[0].Kind != EscapeGlobal || fm.Escapes[0].Sink != "lastSeen" {
		t.Fatalf("want 1 global escape into lastSeen, got %+v", fm.Escapes)
	}
}

func TestClosureEscape(t *testing.T) {
	m := analyze(t, filterHeader+`
type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	f := func() uint32 { return v + 1 }
	out[0][0] = f()
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	found := false
	for _, e := range fm.Escapes {
		if e.Kind == EscapeClosure && e.Var == "v" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want closure escape of v, got %+v", fm.Escapes)
	}
}

func TestNoEscapeForLocalFlow(t *testing.T) {
	m := analyze(t, filterHeader+`
type work struct{}

func (k *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	w := v * 2
	out[0][0] = w
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if len(fm.Escapes) != 0 || len(fm.Opaque) != 0 {
		t.Fatalf("clean local flow reported escapes %+v opaque %+v", fm.Escapes, fm.Opaque)
	}
}

func TestOpaqueFunctionValueCall(t *testing.T) {
	m := analyze(t, filterHeader+`
type work struct{ hook func(uint32) uint32 }

func (w *work) WorkBatch(in, out [][]uint32) {
	hook := w.hook
	v := in[0][0]
	out[0][0] = hook(v)
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if len(fm.Opaque) != 1 || fm.Opaque[0].Callee != "hook" || fm.Opaque[0].Reason != "function value" {
		t.Fatalf("want opaque call through hook, got %+v", fm.Opaque)
	}
}

func TestOpaqueReflectionCall(t *testing.T) {
	m := analyze(t, `package apps

import (
	"reflect"

	"commguard/internal/stream"
)

type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	v := in[0][0]
	_ = reflect.ValueOf(v)
	out[0][0] = v
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if len(fm.Opaque) != 1 || fm.Opaque[0].Reason != "reflection" {
		t.Fatalf("want reflection opaque call, got %+v", fm.Opaque)
	}
}

func TestCriticalPathReconstruction(t *testing.T) {
	m := analyze(t, filterHeader+`
type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	n := int(in[0][0])
	m := n + 1
	for i := 0; i < m; i++ {
		out[0][0] = uint32(i)
	}
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if !fm.ConsumesCritically() {
		t.Fatal("pop -> loop bound not reported as critical consumption")
	}
	var path *TaintPath
	for i := range fm.CriticalPaths {
		if fm.CriticalPaths[i].Sink == "m" {
			path = &fm.CriticalPaths[i]
		}
	}
	if path == nil {
		t.Fatalf("no path with sink m in %+v", fm.CriticalPaths)
	}
	if path.String() != "n -> m" {
		t.Errorf("path = %q, want n -> m", path.String())
	}
}

func TestGuardedFlowHasNoCriticalPath(t *testing.T) {
	m := analyze(t, filterHeader+`
type work struct{}

func (w *work) WorkBatch(in, out [][]uint32) {
	n := clamp(int(in[0][0]))
	for i := 0; i < n; i++ {
		out[0][0] = uint32(i)
	}
}
`, FilterMode)
	fm := filterByName(t, m, "apps.work")
	if fm.ConsumesCritically() {
		t.Fatalf("guarded flow reported critical: %+v, findings %+v", fm.CriticalPaths, fm.Findings)
	}
}
