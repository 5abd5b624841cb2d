package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// fn is one seeded single-output target: its PLA text (what a client
// sends) and its truth table (what the output check compares against).
type fn struct {
	inputs int
	pla    string
	table  []bool // table[m] is f at minterm m; bit v of m is input v
}

// inputNames are the .ilb names every generated PLA declares, so the
// literals in a service answer ("a", "!b") map back to input indexes.
var inputNames = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// funcGen draws distinct random sum-of-products functions of 2 to
// maxCubes cubes. Every function depends on all of its inputs, so two
// functions with different input counts can never share a canonical key
// either.
type funcGen struct {
	rng      *rand.Rand
	maxCubes int
	seen     map[string]bool
}

func newFuncGen(rng *rand.Rand, maxCubes int) *funcGen {
	return &funcGen{rng: rng, maxCubes: maxCubes, seen: map[string]bool{}}
}

// next returns a new function over n inputs that no earlier call returned.
func (g *funcGen) next(n int) fn {
	for {
		cubes := g.randomCover(n)
		table := evalCover(n, cubes)
		key := tableKey(n, table)
		if g.seen[key] || !dependsOnAll(n, table) {
			continue
		}
		g.seen[key] = true
		return fn{inputs: n, pla: plaText(n, cubes), table: table}
	}
}

// randomCover draws 2..maxCubes cubes; each input appears in a cube with
// probability 0.6, in a random polarity. A cube is a string over 0, 1, -.
func (g *funcGen) randomCover(n int) []string {
	k := 2 + g.rng.Intn(g.maxCubes-1)
	cubes := make([]string, 0, k)
	for len(cubes) < k {
		var sb strings.Builder
		lits := 0
		for v := 0; v < n; v++ {
			switch {
			case g.rng.Float64() >= 0.6:
				sb.WriteByte('-')
			case g.rng.Intn(2) == 0:
				sb.WriteByte('0')
				lits++
			default:
				sb.WriteByte('1')
				lits++
			}
		}
		if lits > 0 {
			cubes = append(cubes, sb.String())
		}
	}
	return cubes
}

func plaText(n int, cubes []string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".i %d\n.o 1\n.ilb %s\n.p %d\n", n, strings.Join(inputNames[:n], " "), len(cubes))
	for _, c := range cubes {
		sb.WriteString(c)
		sb.WriteString(" 1\n")
	}
	sb.WriteString(".e\n")
	return sb.String()
}

// evalCover is the reference truth table of a cube list, computed
// minterm by minterm without any of the program's packages.
func evalCover(n int, cubes []string) []bool {
	table := make([]bool, 1<<n)
	for m := range table {
		for _, c := range cubes {
			if cubeCovers(c, m) {
				table[m] = true
				break
			}
		}
	}
	return table
}

func cubeCovers(c string, m int) bool {
	for v := 0; v < len(c); v++ {
		bit := m>>v&1 == 1
		if (c[v] == '1' && !bit) || (c[v] == '0' && bit) {
			return false
		}
	}
	return true
}

func dependsOnAll(n int, table []bool) bool {
	for v := 0; v < n; v++ {
		dep := false
		for m := range table {
			if table[m] != table[m^(1<<v)] {
				dep = true
				break
			}
		}
		if !dep {
			return false
		}
	}
	return true
}

func tableKey(n int, table []bool) string {
	b := make([]byte, len(table))
	for i, t := range table {
		if t {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return fmt.Sprintf("%d:%s", n, b)
}
