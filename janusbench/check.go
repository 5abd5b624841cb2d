package main

import (
	"fmt"
	"strings"

	"github.com/lattice-tools/janus/internal/cube"
	"github.com/lattice-tools/janus/internal/lattice"
)

// The output check: an answer is correct when its switching lattice,
// evaluated by a plain 4-connected flood fill from the top plate, computes
// the target at every minterm. It uses none of the solver's code.

// switchCell is one lattice switch: constant off/on, or a literal.
type switchCell struct {
	kind byte // '0', '1', '+' (positive literal) or '-' (negated literal)
	v    int
}

func (c switchCell) on(m int) bool {
	switch c.kind {
	case '1':
		return true
	case '+':
		return m>>c.v&1 == 1
	case '-':
		return m>>c.v&1 == 0
	}
	return false
}

// parseServiceLattice reads the "lattice" cells of a service answer
// ("0", "1", "b", "!b") over the generated input names.
func parseServiceLattice(rows [][]string, n int) ([][]switchCell, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty lattice")
	}
	grid := make([][]switchCell, len(rows))
	for r, row := range rows {
		if len(row) != len(rows[0]) || len(row) == 0 {
			return nil, fmt.Errorf("ragged lattice")
		}
		grid[r] = make([]switchCell, len(row))
		for c, s := range row {
			cell, err := parseCell(s, n)
			if err != nil {
				return nil, err
			}
			grid[r][c] = cell
		}
	}
	return grid, nil
}

func parseCell(s string, n int) (switchCell, error) {
	switch s {
	case "0", "1":
		return switchCell{kind: s[0]}, nil
	}
	kind := byte('+')
	if name, ok := strings.CutPrefix(s, "!"); ok {
		kind, s = '-', name
	}
	for v := 0; v < n; v++ {
		if inputNames[v] == s {
			return switchCell{kind: kind, v: v}, nil
		}
	}
	return switchCell{}, fmt.Errorf("unknown lattice cell %q", s)
}

// assignmentGrid converts a library result to the same cell grid.
func assignmentGrid(a *lattice.Assignment) [][]switchCell {
	grid := make([][]switchCell, a.Grid.M)
	for r := range grid {
		grid[r] = make([]switchCell, a.Grid.N)
		for c := range grid[r] {
			e := a.At(r, c)
			switch e.Kind {
			case lattice.Const0:
				grid[r][c] = switchCell{kind: '0'}
			case lattice.Const1:
				grid[r][c] = switchCell{kind: '1'}
			case lattice.PosVar:
				grid[r][c] = switchCell{kind: '+', v: e.Var}
			case lattice.NegVar:
				grid[r][c] = switchCell{kind: '-', v: e.Var}
			}
		}
	}
	return grid
}

// coverTable is the reference truth table of a library cover.
func coverTable(f cube.Cover) []bool {
	cubes := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		b := []byte(strings.Repeat("-", f.N))
		for v := 0; v < f.N; v++ {
			switch {
			case c.Pos>>v&1 == 1:
				b[v] = '1'
			case c.Neg>>v&1 == 1:
				b[v] = '0'
			}
		}
		cubes[i] = string(b)
	}
	return evalCover(f.N, cubes)
}

// latticeComputes reports whether the grid computes table: for every
// minterm, the on switches connect the top row to the bottom row.
func latticeComputes(grid [][]switchCell, table []bool) bool {
	rows, cols := len(grid), len(grid[0])
	seen := make([]bool, rows*cols)
	queue := make([]int, 0, rows*cols)
	for m, want := range table {
		clear(seen)
		queue = queue[:0]
		for c := 0; c < cols; c++ {
			if grid[0][c].on(m) {
				seen[c] = true
				queue = append(queue, c)
			}
		}
		got := false
		for head := 0; head < len(queue); head++ {
			i := queue[head]
			r, c := i/cols, i%cols
			if r == rows-1 {
				got = true
				break
			}
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nr >= rows || nc < 0 || nc >= cols {
					continue
				}
				j := nr*cols + nc
				if !seen[j] && grid[nr][nc].on(m) {
					seen[j] = true
					queue = append(queue, j)
				}
			}
		}
		if got != want {
			return false
		}
	}
	return true
}
