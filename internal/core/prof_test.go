package core

import (
	"testing"
	"time"

	"github.com/lattice-tools/janus/internal/benchdata"
)

// BenchmarkProfileClpl00 exists to profile a single mid-size synthesis
// run:
//
//	go test -run '^$' -bench BenchmarkProfileClpl00 -benchtime 1x -cpuprofile cpu.out ./internal/core
func BenchmarkProfileClpl00(b *testing.B) {
	benchClpl00(b, false)
}

// BenchmarkProfileClpl00Cegar mirrors BenchmarkProfileClpl00 with the
// CEGAR engine.
func BenchmarkProfileClpl00Cegar(b *testing.B) {
	benchClpl00(b, true)
}

func benchClpl00(b *testing.B, cegar bool) {
	f, _ := benchdata.Lookup("clpl_00").Function()
	opt := Options{Budget: 30 * time.Second}
	opt.Encode.CEGAR = cegar
	for i := 0; i < b.N; i++ {
		r, err := Synthesize(f, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("clpl_00 cegar=%v: %v size=%d lb=%d nub=%d lm=%d elapsed=%v",
			cegar, r.Grid, r.Size, r.LB, r.NUB, r.LMSolved, r.Elapsed)
	}
}
