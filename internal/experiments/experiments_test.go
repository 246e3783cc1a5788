package experiments

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"commguard/internal/fault"
	"commguard/internal/metrics"
	"commguard/internal/sim"
)

func quick(t *testing.T) Options {
	t.Helper()
	o := QuickOptions()
	o.Seeds = 1
	o.MTBEs = []float64{64e3, 1024e3}
	o.FrameScales = []int{1, 4}
	return o
}

func TestOptionsDefaults(t *testing.T) {
	d := DefaultOptions()
	if d.Seeds != 5 || len(d.MTBEs) != 8 || len(d.FrameScales) != 4 {
		t.Errorf("defaults = %+v", d)
	}
	if QuickOptions().Quick != true {
		t.Error("quick options not quick")
	}
	if got := (Options{}).parallel(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("zero parallel should default to GOMAXPROCS, got %d", got)
	}
	if (Options{Parallel: 3}).parallel() != 3 {
		t.Error("explicit parallel not honored")
	}
	if len(QuickOptions().builders()) != 6 {
		t.Error("quick builders incomplete")
	}
	if _, err := (Options{}).builder("nope"); err == nil {
		t.Error("unknown builder accepted")
	}
}

// Figure 3 shape: CommGuard must clearly beat the two unguarded error-prone
// configurations on jpeg, and error-free is the ceiling.
func TestFigure3Shape(t *testing.T) {
	o := quick(t)
	o.Seeds = 2
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byProt := map[sim.Protection]Fig3Row{}
	for _, r := range rows {
		byProt[r.Protection] = r
	}
	ef := byProt[sim.ErrorFree].MeanPSNR
	cg := byProt[sim.CommGuard].MeanPSNR
	sq := byProt[sim.SoftwareQueue].MeanPSNR
	rq := byProt[sim.ReliableQueue].MeanPSNR
	if !(ef >= cg) {
		t.Errorf("error-free %.1f not >= commguard %.1f", ef, cg)
	}
	if !(cg > sq && cg > rq) {
		t.Errorf("commguard %.1f must beat software-queue %.1f and reliable-queue %.1f", cg, sq, rq)
	}
	if !strings.Contains(buf.String(), "Figure 3") {
		t.Error("missing table header")
	}
}

func TestFigure7And9(t *testing.T) {
	o := quick(t)
	r7, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if r7.MTBE != 512e3 {
		t.Errorf("Fig7 MTBE = %v", r7.MTBE)
	}
	if r7.PSNR <= 5 {
		t.Errorf("Fig7 PSNR = %.1f, implausibly low for CommGuard at 512k", r7.PSNR)
	}
	pts, err := Figure9(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("Fig9 points = %d", len(pts))
	}
	// Shape: quality at the thinnest error rate beats the densest.
	if !(pts[3].PSNR >= pts[0].PSNR) {
		t.Errorf("PSNR at 8192k (%.1f) should be >= PSNR at 128k (%.1f)", pts[3].PSNR, pts[0].PSNR)
	}
}

func TestFigure8LossShape(t *testing.T) {
	o := quick(t)
	series, err := Figure8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 6 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(o.MTBEs) {
			t.Fatalf("%s: %d points", s.App, len(s.Points))
		}
		for _, p := range s.Points {
			if p.LossRatio.Mean < 0 || p.LossRatio.Mean > 1 {
				t.Errorf("%s: loss ratio %v out of range", s.App, p.LossRatio.Mean)
			}
		}
		// Shape: loss at the highest MTBE must not exceed loss at the
		// lowest (fewer errors, fewer realignments) by any real margin.
		lo, hi := s.Points[len(s.Points)-1].LossRatio.Mean, s.Points[0].LossRatio.Mean
		if lo > hi+0.01 {
			t.Errorf("%s: loss grew with MTBE: %v -> %v", s.App, hi, lo)
		}
	}
}

func TestFigure10QualityImprovesWithMTBE(t *testing.T) {
	o := quick(t)
	series, err := Figure10(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if math.IsInf(s.ErrorFreeDB, 1) {
			t.Errorf("%s: media benchmark should have a finite error-free baseline", s.App)
		}
		var lowQ, highQ float64
		for _, p := range s.Points {
			if p.FrameScale != 1 {
				continue
			}
			if p.MTBE == o.MTBEs[0] {
				lowQ = p.Quality.Mean
			}
			if p.MTBE == o.MTBEs[len(o.MTBEs)-1] {
				highQ = p.Quality.Mean
			}
		}
		if highQ < lowQ-1 {
			t.Errorf("%s: quality at high MTBE (%.1f) below low MTBE (%.1f)", s.App, highQ, lowQ)
		}
	}
}

func TestFigure11SelfReferenced(t *testing.T) {
	o := quick(t)
	series, err := Figure11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 4 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if !math.IsInf(s.ErrorFreeDB, 1) {
			t.Errorf("%s: self-referenced baseline should be +Inf, got %v", s.App, s.ErrorFreeDB)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	o := quick(t)
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := Figure12(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // 6 benchmarks + gmean
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]Fig12Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.LoadRatio < 0 || r.LoadRatio > 0.6 || r.StoreRatio < 0 || r.StoreRatio > 0.6 {
			t.Errorf("%s: implausible ratios %+v", r.App, r)
		}
	}
	// Shape: audiobeamformer (per-sample frames) has the heaviest header
	// traffic; jpeg (huge frames) among the lightest.
	if byApp["audiobeamformer"].StoreRatio <= byApp["jpeg"].StoreRatio {
		t.Errorf("audiobeamformer header share (%v) should exceed jpeg's (%v)",
			byApp["audiobeamformer"].StoreRatio, byApp["jpeg"].StoreRatio)
	}
	if byApp["GMean"].LoadRatio <= 0 {
		t.Error("gmean missing")
	}
}

func TestFigure14Shape(t *testing.T) {
	o := quick(t)
	rows, err := Figure14(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	byApp := map[string]Fig14Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	for _, name := range []string{"jpeg", "mp3", "fft"} {
		r := byApp[name]
		if r.Total <= 0 || r.Total > 0.5 {
			t.Errorf("%s: total suboperation share %v implausible", name, r.Total)
		}
		if r.Total != r.FSMCounter+r.ECC+r.HeaderBit {
			t.Errorf("%s: total mismatch", name)
		}
	}
	if byApp["audiobeamformer"].Total <= byApp["jpeg"].Total {
		t.Errorf("audiobeamformer (%v) should have more suboperations than jpeg (%v)",
			byApp["audiobeamformer"].Total, byApp["jpeg"].Total)
	}
	// The GMean row is the geometric mean of every column, components
	// included.
	var fsm, ecc, hdr, total []float64
	for _, r := range rows[:len(rows)-1] {
		fsm, ecc, hdr, total = append(fsm, r.FSMCounter), append(ecc, r.ECC), append(hdr, r.HeaderBit), append(total, r.Total)
	}
	g := rows[len(rows)-1]
	want := Fig14Row{App: "GMean", FSMCounter: metrics.GeoMean(fsm), ECC: metrics.GeoMean(ecc),
		HeaderBit: metrics.GeoMean(hdr), Total: metrics.GeoMean(total)}
	if g != want {
		t.Errorf("GMean row = %+v, want %+v", g, want)
	}
}

func TestFigure13Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	o := quick(t)
	o.FrameScales = []int{1}
	rows, err := Figure13(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Wall-clock noise allows negatives, but anything beyond +-100%
		// signals a measurement bug.
		if r.OverheadPct < -100 || r.OverheadPct > 300 {
			t.Errorf("%s x%d: overhead %v%% implausible", r.App, r.FrameScale, r.OverheadPct)
		}
	}
}

// The class-sensitivity ablation: pure data errors affect guarded and
// unguarded runs about equally; pure control-flow errors must favor
// CommGuard (that conversion is the paper's whole point).
func TestClassSensitivity(t *testing.T) {
	o := quick(t)
	o.Seeds = 3
	rows, err := ClassSensitivity(o, "mp3", 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	byClass := map[fault.Class]SensitivityRow{}
	for _, r := range rows {
		byClass[r.Class] = r
	}
	data := byClass[fault.DataBitflip]
	if d := math.Abs(data.GuardedDB - data.PlainDB); d > 6 {
		t.Errorf("data flips should hit both configurations similarly; gap %.1f dB", d)
	}
	trip := byClass[fault.ControlTrip]
	if trip.GuardedDB <= trip.PlainDB {
		t.Errorf("control trips: guarded %.1f dB should beat unguarded %.1f dB", trip.GuardedDB, trip.PlainDB)
	}
	if trip.LossRatio <= 0 {
		t.Error("control trips under CommGuard should incur realignment loss")
	}
	if data.LossRatio > trip.LossRatio {
		t.Error("data flips should cause less realignment than control trips")
	}
}

// CritWeighting exercises the criticality-weighted fault model end-to-end:
// static analysis over the repo's own sources feeding per-node injection
// models, compared against the uniform model on the same seeds.
func TestCritWeighting(t *testing.T) {
	o := quick(t)
	var buf bytes.Buffer
	o.Out = &buf
	rows, err := CritWeighting(o, 96e3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("want 7 benchmarks (6 + doall), got %d", len(rows))
	}
	for _, r := range rows {
		if r.Fraction <= 0 || r.Fraction >= 1 {
			t.Errorf("%s: analysis fraction %v out of (0,1) — lookup not resolving", r.App, r.Fraction)
		}
		if r.UniformDB < -40 || r.UniformDB > 160 || r.WeightedDB < -40 || r.WeightedDB > 160 {
			t.Errorf("%s: dB out of clamp range: uniform %v weighted %v", r.App, r.UniformDB, r.WeightedDB)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "criticality-weighted") || !strings.Contains(out, "doall") {
		t.Errorf("table output incomplete:\n%s", out)
	}
}
