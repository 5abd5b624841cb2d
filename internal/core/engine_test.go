package core

import (
	"testing"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/encode"
)

func TestParseEngineSelect(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineSelect
		err  bool
	}{
		{"", EngineAuto, false},
		{"auto", EngineAuto, false},
		{"shared", EngineShared, false},
		{"fresh", EngineFresh, false},
		{"Shared", EngineAuto, true},
		{"portfolio", EngineAuto, true},
	} {
		got, err := ParseEngineSelect(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseEngineSelect(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	for _, e := range []EngineSelect{EngineAuto, EngineShared, EngineFresh} {
		back, err := ParseEngineSelect(e.String())
		if err != nil || back != e {
			t.Errorf("round trip %v via %q failed: %v, %v", e, e.String(), back, err)
		}
	}
}

func TestEngineModeResolution(t *testing.T) {
	if got := (Options{}).engineMode(); got != EngineAuto {
		t.Fatalf("zero options resolve to %v, want auto", got)
	}
	pool := encode.NewSharedPool()
	opt := Options{}
	opt.Encode.Shared = pool
	if got := opt.engineMode(); got != EngineShared {
		t.Fatalf("caller-provided pool resolves to %v, want shared", got)
	}
	opt.EngineSelect = EngineFresh
	if got := opt.engineMode(); got != EngineFresh {
		t.Fatalf("explicit enum must beat a caller-provided pool: %v", got)
	}
}

// TestPredictDepth pins the shape of the policy score: monotone in every
// feature, and on the calibration anchors it keeps mp2d_06's first step
// (gap 9, 9 products, nothing solved yet) below the default threshold
// while misex1_04's first main-search step (gap 6, 11 products, DS
// already solved LM problems) lands above it.
func TestPredictDepth(t *testing.T) {
	base := predictDepth(8, 6, 2)
	if predictDepth(16, 6, 2) <= base || predictDepth(8, 10, 2) <= base || predictDepth(8, 6, 4) <= base {
		t.Fatal("predictDepth must grow with gap, cover breadth, and solves")
	}
	if got := predictDepth(9, 9, 0); got >= DefaultEngineThreshold {
		t.Fatalf("mp2d_06 anchor scores %d, must stay below threshold %d (fresh)", got, DefaultEngineThreshold)
	}
	if got := predictDepth(6, 11, 2); got < DefaultEngineThreshold {
		t.Fatalf("misex1_04 anchor scores %d, must reach threshold %d (shared)", got, DefaultEngineThreshold)
	}
}

// TestForcedEngineResults: the forced modes must report a pure step
// trail, and both must land on the known fig1 answer.
func TestForcedEngineResults(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	for _, tc := range []struct {
		sel    EngineSelect
		engine string
	}{
		{EngineFresh, "fresh"},
		{EngineShared, "shared"},
	} {
		r, err := Synthesize(f, Options{EngineSelect: tc.sel})
		if err != nil {
			t.Fatal(err)
		}
		if r.Size != 8 {
			t.Fatalf("%v: fig1 size = %d, want 8", tc.sel, r.Size)
		}
		if r.Engine != tc.engine {
			t.Fatalf("%v: result engine %q, want %q", tc.sel, r.Engine, tc.engine)
		}
		if tc.sel == EngineFresh && r.SharedSteps != 0 {
			t.Fatalf("forced fresh ran %d shared steps", r.SharedSteps)
		}
		if tc.sel == EngineShared && r.FreshSteps != 0 {
			t.Fatalf("forced shared ran %d fresh steps", r.FreshSteps)
		}
		if r.FreshSteps+r.SharedSteps == 0 {
			t.Fatalf("%v: no steps recorded", tc.sel)
		}
		if r.PredictedDepth == 0 {
			t.Fatalf("%v: predicted depth missing", tc.sel)
		}
	}

	// Auto on the same function must decide every step one way or the
	// other and agree on the answer.
	r, err := Synthesize(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 8 {
		t.Fatalf("auto: fig1 size = %d, want 8", r.Size)
	}
	if r.Engine != "fresh" && r.Engine != "shared" && r.Engine != "mixed" {
		t.Fatalf("auto: engine verdict %q", r.Engine)
	}
	if r.FreshSteps+r.SharedSteps == 0 {
		t.Fatal("auto: no steps recorded")
	}
}

// TestAutoThresholdOverride: a threshold of 1 makes every step shared, a
// huge one keeps every step fresh — the threshold must actually steer
// the policy.
func TestAutoThresholdOverride(t *testing.T) {
	f := cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
	low, err := Synthesize(f, Options{engineThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	if low.FreshSteps != 0 || low.SharedSteps == 0 {
		t.Fatalf("threshold 1: %d shared / %d fresh steps, want all shared",
			low.SharedSteps, low.FreshSteps)
	}
	high, err := Synthesize(f, Options{engineThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if high.SharedSteps != 0 || high.FreshSteps == 0 {
		t.Fatalf("threshold max: %d shared / %d fresh steps, want all fresh",
			high.SharedSteps, high.FreshSteps)
	}
	if low.Size != high.Size {
		t.Fatalf("engines disagree: shared %d vs fresh %d switches", low.Size, high.Size)
	}
}
