package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// oracleFrontier is the brute-force O(n²) dominance oracle: a point is
// on the frontier iff no other candidate dominates it. Ordering is the
// same canonical sort the archive promises.
func oracleFrontier(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// randomPoints draws a candidate set with small integer objectives so
// ties, duplicates, and exact dominance all occur often.
func randomPoints(rng *rand.Rand) []Point {
	n := 1 + rng.Intn(40)
	dims := 2 + rng.Intn(3)
	pts := make([]Point, n)
	for i := range pts {
		obj := make([]float64, dims)
		for d := range obj {
			obj[d] = float64(rng.Intn(6))
		}
		pts[i] = Point{ID: fmt.Sprintf("p%03d", i), Objectives: obj}
	}
	return pts
}

// TestFrontierMatchesOracle is the property test the ISSUE asks for:
// 300+ randomized candidate sets, each checked against the brute-force
// dominance oracle. No dominated point may appear in the returned
// frontier and no non-dominated point may be excluded; ordering must be
// the canonical tie-break order.
func TestFrontierMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng)
		got := paretoFrontier(pts)
		want := oracleFrontier(pts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: frontier mismatch\n got: %v\nwant: %v\n set: %v", seed, got, want, pts)
		}
		// Explicit direction checks, so a symmetric bug in the oracle
		// cannot mask one in the archive.
		onFrontier := make(map[string]bool, len(got))
		for _, p := range got {
			onFrontier[p.ID] = true
		}
		for i, p := range pts {
			dominated := false
			for j, q := range pts {
				if i != j && Dominates(q, p) {
					dominated = true
					break
				}
			}
			if dominated && onFrontier[p.ID] {
				t.Fatalf("seed %d: dominated point %s in frontier", seed, p.ID)
			}
			if !dominated && !onFrontier[p.ID] {
				t.Fatalf("seed %d: non-dominated point %s excluded", seed, p.ID)
			}
		}
	}
}

// TestFrontierInsertionOrderInvariant shuffles each candidate set and
// re-runs both the batch helper and an incremental archive: the
// frontier must be byte-for-byte identical regardless of arrival order.
func TestFrontierInsertionOrderInvariant(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pts := randomPoints(rng)
		want := paretoFrontier(pts)
		for shuffle := 0; shuffle < 5; shuffle++ {
			perm := rng.Perm(len(pts))
			shuffled := make([]Point, len(pts))
			for i, j := range perm {
				shuffled[i] = pts[j]
			}
			if got := paretoFrontier(shuffled); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shuffle %d: frontier depends on insertion order\n got: %v\nwant: %v", seed, shuffle, got, want)
			}
			a := NewArchive()
			for _, p := range shuffled {
				a.Insert(p)
			}
			if got := a.Frontier(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d shuffle %d: incremental archive diverges from batch filter", seed, shuffle)
			}
		}
	}
}

// TestFrontierStableTieBreak: equal objective vectors are all kept and
// ordered by ID, after any insertion order.
func TestFrontierStableTieBreak(t *testing.T) {
	pts := []Point{
		{ID: "c", Objectives: []float64{1, 2}},
		{ID: "a", Objectives: []float64{1, 2}},
		{ID: "b", Objectives: []float64{1, 2}},
		{ID: "z", Objectives: []float64{0, 3}}, // incomparable, sorts first
		{ID: "d", Objectives: []float64{2, 2}}, // dominated by a/b/c
	}
	got := paretoFrontier(pts)
	wantIDs := []string{"z", "a", "b", "c"}
	if len(got) != len(wantIDs) {
		t.Fatalf("frontier size %d, want %d: %v", len(got), len(wantIDs), got)
	}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Fatalf("frontier[%d] = %s, want %s (full: %v)", i, got[i].ID, id, got)
		}
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strict-all", Point{Objectives: []float64{1, 1}}, Point{Objectives: []float64{2, 2}}, true},
		{"strict-one", Point{Objectives: []float64{1, 2}}, Point{Objectives: []float64{2, 2}}, true},
		{"equal", Point{Objectives: []float64{1, 2}}, Point{Objectives: []float64{1, 2}}, false},
		{"incomparable", Point{Objectives: []float64{1, 3}}, Point{Objectives: []float64{3, 1}}, false},
		{"worse", Point{Objectives: []float64{2, 2}}, Point{Objectives: []float64{1, 2}}, false},
		{"length-mismatch", Point{Objectives: []float64{1}}, Point{Objectives: []float64{2, 2}}, false},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("%s: Dominates = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestArchiveInsertReportsKept(t *testing.T) {
	a := NewArchive()
	if !a.Insert(Point{ID: "a", Objectives: []float64{2, 2}}) {
		t.Fatal("first insert rejected")
	}
	if a.Insert(Point{ID: "b", Objectives: []float64{3, 3}}) {
		t.Fatal("dominated insert kept")
	}
	if !a.Insert(Point{ID: "c", Objectives: []float64{1, 1}}) {
		t.Fatal("dominating insert rejected")
	}
	if fr := a.Frontier(); len(fr) != 1 || fr[0].ID != "c" {
		t.Fatalf("frontier %v, want just c", fr)
	}
}

// paretoFrontier filters points down to the non-dominated subset in
// canonical order through one Archive.
func paretoFrontier(points []Point) []Point {
	a := NewArchive()
	for _, p := range points {
		a.Insert(p)
	}
	return a.Frontier()
}
