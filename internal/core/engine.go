package core

import (
	"fmt"
	"math/bits"
)

// EngineSelect picks the LM solver strategy for the dichotomic search.
// The zero value is EngineAuto, which makes the per-step policy the
// default: fresh per-candidate solvers below the depth threshold, the
// shared assumption-based pool above it. The two forced modes pin every
// step to one strategy — EngineShared the pool, EngineFresh the pre-pool
// behavior.
type EngineSelect int

const (
	// EngineAuto predicts each step's remaining search depth and picks
	// fresh or shared engines accordingly (the default).
	EngineAuto EngineSelect = iota
	// EngineShared forces the shared assumption-based solver pool for
	// every dichotomic step.
	EngineShared
	// EngineFresh forces fresh per-candidate solvers for every step.
	EngineFresh
)

// String names the mode the way the -engine flag spells it.
func (e EngineSelect) String() string {
	switch e {
	case EngineShared:
		return "shared"
	case EngineFresh:
		return "fresh"
	default:
		return "auto"
	}
}

// ParseEngineSelect reads a -engine flag value.
func ParseEngineSelect(s string) (EngineSelect, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "shared":
		return EngineShared, nil
	case "fresh":
		return EngineFresh, nil
	}
	return EngineAuto, fmt.Errorf("core: unknown engine %q (want auto, shared, or fresh)", s)
}

// DefaultEngineThreshold is the depth score at which EngineAuto switches
// from fresh to shared engines, calibrated on the BenchmarkSharedSearch
// instances: mp2d_06's shallow search (score ~20 at its first step) stays
// fresh and keeps the low-overhead engines, misex1_04's DS-preceded
// search (score ~30) goes shared and keeps the ~2x transfer win. See
// DESIGN.md "Engine selection".
const DefaultEngineThreshold = 24

func (o Options) depthThreshold() int {
	if o.engineThreshold <= 0 {
		return DefaultEngineThreshold
	}
	return o.engineThreshold
}

// engineMode resolves the effective selection mode: the explicit enum
// wins, and a caller-provided pool means EngineShared.
func (o Options) engineMode() EngineSelect {
	if o.EngineSelect == EngineAuto && o.Encode.Shared != nil {
		return EngineShared
	}
	return o.EngineSelect
}

// predictDepth scores how much LM-solve work the search still expects
// before one dichotomic step: the remaining halving steps of the bounds
// gap, weighted by the cover's breadth (its ISOP plus dual product
// count — wider covers mean heavier per-candidate formulas that amortize
// a shared skeleton), plus the LM problems already solved for this
// target (DS sub-searches and earlier steps — observed evidence that the
// instance keeps reaching the SAT solver rather than being refuted
// structurally). Scores at or above the threshold choose the shared
// pool.
func predictDepth(gap, products, solved int) int {
	steps := bits.Len(uint(gap))
	return steps*(products+1)/2 + 4*solved
}

// engineName labels one step's decision for spans and results.
func engineName(shared bool) string {
	if shared {
		return "shared"
	}
	return "fresh"
}
