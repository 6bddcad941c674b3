package mesh

import (
	"math/rand"
	"sort"
	"testing"

	"mute/internal/acoustics"
)

// TestGridNearestMatchesBruteForce pins the ring-expansion query against
// an exhaustive scan over random layouts, eligibility subsets, and query
// points.
func TestGridNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Capacity: 64, CellSize: 1, MaxX: 16, MaxY: 16}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		g := newGrid(cfg)
		n := 1 + rng.Intn(60)
		pos := make([]acoustics.Point, n)
		elig := make([]bool, n)
		for i := range pos {
			pos[i] = acoustics.Point{X: rng.Float64() * 18, Y: rng.Float64()*18 - 1} // some out of bounds
			elig[i] = rng.Intn(4) != 0
			g.insert(int32(i), g.cellOf(pos[i]))
		}
		center := acoustics.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16}
		k := 1 + rng.Intn(12)
		got := g.nearest(center, k,
			func(s int32) bool { return elig[s] },
			func(s int32) float64 { return center.Dist(pos[s]) })

		var want []int32
		for i := range pos {
			if elig[i] {
				want = append(want, int32(i))
			}
		}
		sort.Slice(want, func(a, b int) bool {
			da, db := center.Dist(pos[want[a]]), center.Dist(pos[want[b]])
			if da != db {
				return da < db
			}
			return want[a] < want[b]
		})
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if center.Dist(pos[got[i-1]]) > center.Dist(pos[got[i]]) {
				t.Fatalf("trial %d: results not distance-ordered", trial)
			}
		}
		// Compare distance multisets (ties may order either way).
		for i := range got {
			dg, dw := center.Dist(pos[got[i]]), center.Dist(pos[want[i]])
			if dg != dw {
				t.Fatalf("trial %d: rank %d distance %.6f, brute force %.6f", trial, i, dg, dw)
			}
		}
	}
}

// TestGridRemoveAndMove pins swap-delete bookkeeping through churn.
func TestGridRemoveAndMove(t *testing.T) {
	cfg := Config{Capacity: 8, CellSize: 1, MaxX: 8, MaxY: 8}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g := newGrid(cfg)
	p := acoustics.Point{X: 2.5, Y: 2.5}
	c := g.cellOf(p)
	g.insert(0, c)
	g.insert(1, c)
	g.insert(2, c)
	g.remove(1, c)
	if len(g.cells[c]) != 2 {
		t.Fatalf("cell holds %d slots after remove, want 2", len(g.cells[c]))
	}
	got := g.nearest(p, 3, func(int32) bool { return true }, func(int32) float64 { return 0 })
	if len(got) != 2 {
		t.Fatalf("nearest returned %d slots, want 2", len(got))
	}
	for _, s := range got {
		if s == 1 {
			t.Fatal("removed slot still returned by query")
		}
	}
}

// TestGridNearestAllocFree pins that queries reuse scratch.
func TestGridNearestAllocFree(t *testing.T) {
	cfg := Config{Capacity: 64, CellSize: 1, MaxX: 16, MaxY: 16}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	g := newGrid(cfg)
	rng := rand.New(rand.NewSource(7))
	pos := make([]acoustics.Point, 64)
	for i := range pos {
		pos[i] = acoustics.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16}
		g.insert(int32(i), g.cellOf(pos[i]))
	}
	center := acoustics.Point{X: 8, Y: 8}
	elig := func(int32) bool { return true }
	dist := func(s int32) float64 { return center.Dist(pos[s]) }
	g.nearest(center, 8, elig, dist) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		g.nearest(center, 8, elig, dist)
	})
	if allocs != 0 {
		t.Fatalf("nearest allocates %.1f objects per query, want 0", allocs)
	}
}
