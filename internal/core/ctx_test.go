package core

import (
	"context"
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/cube"
)

func fig1Cover() cube.Cover {
	return cube.NewCover(4,
		cube.FromLiterals([]int{0, 1, 2, 3}, nil),
		cube.FromLiterals(nil, []int{0, 1, 2, 3}))
}

// TestSynthesizeCtxCanceled: a pre-cancelled context must stop the
// search immediately — like an expired Budget, the best bound-derived
// incumbent comes back without an error — and it must do so promptly.
func TestSynthesizeCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	r, err := Synthesize(fig1Cover(), Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("cancelled synthesis took %v", e)
	}
	// The dichotomic search never ran, so the incumbent is the initial
	// upper bound construction, still a verified implementation.
	if r.Assignment == nil || !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("cancelled synthesis must still return the verified incumbent")
	}
	if r.LMSolved != 0 {
		t.Fatalf("LMSolved = %d, want 0 under a pre-cancelled context", r.LMSolved)
	}
}

// TestSynthesizeCtxMidway cancels while the synthesis runs; the call
// must return well before the work would otherwise take, with whatever
// incumbent was verified by then.
func TestSynthesizeCtxMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	r, err := Synthesize(fig1Cover(), Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if r.Assignment == nil || !r.Assignment.Realizes(r.ISOP) {
		t.Fatal("mid-run cancellation must still return a verified incumbent")
	}
}
