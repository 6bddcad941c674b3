package mesh

import (
	"mute/internal/acoustics"
)

// grid is a uniform spatial index over the room's floor plan. Cells hold
// member slots; queries expand outward in cell rings from a center point
// and keep the k nearest eligible slots, so a selection round touches
// O(k) members instead of all N. Insert/remove/move are O(cell
// occupancy); the query allocates nothing (results land in caller
// scratch).
type grid struct {
	cellSize     float64
	nx, ny       int
	cells        [][]int32 // per-cell slot lists (swap-delete, cap retained)
	maxCellRing  int       // max Chebyshev ring radius worth scanning
	queryNearest []int32   // scratch reused by nearest (distance-ordered)
	queryDist    []float64
}

func newGrid(cfg Config) *grid {
	nx := int(cfg.MaxX/cfg.CellSize) + 1
	ny := int(cfg.MaxY/cfg.CellSize) + 1
	g := &grid{
		cellSize: cfg.CellSize,
		nx:       nx,
		ny:       ny,
		cells:    make([][]int32, nx*ny),
	}
	g.maxCellRing = nx
	if ny > nx {
		g.maxCellRing = ny
	}
	return g
}

// cellOf maps a position to its cell index, clamping out-of-bounds
// positions to the edge cells (a relay that walked out of the mapped
// area still lives somewhere).
func (g *grid) cellOf(p acoustics.Point) int {
	cx := int(p.X / g.cellSize)
	cy := int(p.Y / g.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

func (g *grid) insert(slot int32, cell int) {
	g.cells[cell] = append(g.cells[cell], slot)
}

func (g *grid) remove(slot int32, cell int) {
	c := g.cells[cell]
	for i, s := range c {
		if s == slot {
			c[i] = c[len(c)-1]
			g.cells[cell] = c[:len(c)-1]
			return
		}
	}
}

// nearest collects the k eligible slots nearest center, expanding cell
// rings outward. Expansion stops once the k-th best distance is closer
// than any point a further ring could hold (a cell at Chebyshev ring r+1
// is at least r cell-widths away), so the result is exact and ordered by
// ascending distance. The returned slice aliases grid scratch and is
// valid until the next call.
func (g *grid) nearest(center acoustics.Point, k int, eligible func(slot int32) bool, dist func(slot int32) float64) []int32 {
	if cap(g.queryNearest) < k {
		g.queryNearest = make([]int32, 0, k)
		g.queryDist = make([]float64, 0, k)
	}
	out := g.queryNearest[:0]
	dts := g.queryDist[:0]
	ccx := int(center.X / g.cellSize)
	ccy := int(center.Y / g.cellSize)
	if ccx < 0 {
		ccx = 0
	}
	if ccx >= g.nx {
		ccx = g.nx - 1
	}
	if ccy < 0 {
		ccy = 0
	}
	if ccy >= g.ny {
		ccy = g.ny - 1
	}
	consider := func(slot int32) {
		if !eligible(slot) {
			return
		}
		d := dist(slot)
		if len(out) == k && d >= dts[len(dts)-1] {
			return
		}
		// Insertion into the fixed-k distance-ordered lists.
		i := len(out)
		if i < k {
			out = append(out, 0)
			dts = append(dts, 0)
		} else {
			i = k - 1
		}
		for ; i > 0 && dts[i-1] > d; i-- {
			out[i] = out[i-1]
			dts[i] = dts[i-1]
		}
		out[i] = slot
		dts[i] = d
	}
	scanCell := func(cx, cy int) {
		if cx < 0 || cx >= g.nx || cy < 0 || cy >= g.ny {
			return
		}
		for _, slot := range g.cells[cy*g.nx+cx] {
			consider(slot)
		}
	}
	for r := 0; r <= g.maxCellRing; r++ {
		if r == 0 {
			scanCell(ccx, ccy)
		} else {
			for cx := ccx - r; cx <= ccx+r; cx++ {
				scanCell(cx, ccy-r)
				scanCell(cx, ccy+r)
			}
			for cy := ccy - r + 1; cy <= ccy+r-1; cy++ {
				scanCell(ccx-r, cy)
				scanCell(ccx+r, cy)
			}
		}
		// A cell at Chebyshev ring r+1 is ≥ r cell-widths from anywhere in
		// the center cell: once the k-th best beats that bound, no further
		// ring can improve the result.
		if len(out) == k && dts[len(dts)-1] <= float64(r)*g.cellSize {
			break
		}
	}
	g.queryNearest = out[:0]
	g.queryDist = dts[:0]
	return out
}
