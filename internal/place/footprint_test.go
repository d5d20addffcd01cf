package place

import (
	"fmt"
	"math/rand"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
)

// membersOverlap is the member-pair overlap test the difference sets
// replace: anchor coordinates by divide and modulo, then every pair of
// members compared.
func membersOverlap(a, b *cluster, av, bv, height int) bool {
	ax, ay := av/height, av%height
	bx, by := bv/height, bv%height
	for _, ma := range a.members {
		for _, mb := range b.members {
			if ax+ma.xoff == bx+mb.xoff && ay+ma.yoff == by+mb.yoff {
				return true
			}
		}
	}
	return false
}

// TestFootprintMatchesMembers: for random clusters of 1–8 members on the
// tiny test device, and on a taller one whose footprints span several
// words, the difference-set predicate agrees with the member-pair loop at
// every pair of anchors either cluster's domain holds.
func TestFootprintMatchesMembers(t *testing.T) {
	tall, err := device.Standard("tall", 4, 2, 40, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*device.Device{dev4(t), tall} {
		footprintsMatch(t, d)
	}
}

func footprintsMatch(t *testing.T, d *device.Device) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 40; round++ {
		// Four clusters of one primitive: offsets distinct within each,
		// inside a box that fits the device (x span < 4 LUT columns,
		// y span < the height), anchored at shared variables or, for a
		// singleton, at wildcards or a variable of its own.
		f := &asm.Func{Name: "f"}
		for c := 0; c < 4; c++ {
			n := 1 + rng.Intn(8)
			x0, y0 := -rng.Intn(2), -rng.Intn(3)
			seen := map[[2]int]bool{}
			for len(seen) < n {
				off := [2]int{x0 + rng.Intn(4), y0 + rng.Intn(d.Height)}
				if seen[off] {
					continue
				}
				seen[off] = true
				loc := asm.Loc{Prim: ir.ResLut,
					X: asm.VarPlus(fmt.Sprintf("x%d", c), int64(off[0])),
					Y: asm.VarPlus(fmt.Sprintf("y%d", c), int64(off[1]))}
				if n == 1 && rng.Intn(2) == 0 {
					loc = asm.Unplaced(ir.ResLut)
				}
				f.Body = append(f.Body, asm.Instr{Dest: fmt.Sprintf("c%dm%d", c, len(seen)), Name: "lut", Loc: loc})
			}
		}
		clusters, err := buildClusters(f, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) != 4 {
			t.Fatalf("round %d: %d clusters, want 4", round, len(clusters))
		}
		full := [2]int{d.NumCols(ir.ResLut), d.Height}
		var words []uint64
		for _, a := range clusters {
			for _, b := range clusters {
				if a == b {
					continue
				}
				ds := diff(a, b, &words)
				for _, av := range anchorDomain(d, a.shape(), full) {
					for _, bv := range anchorDomain(d, b.shape(), full) {
						if got, want := ds.has(bv-av), membersOverlap(a, b, av, bv, d.Height); got != want {
							t.Fatalf("%s, round %d: %s at %d, %s at %d: difference set says %v, members say %v",
								d.Name, round, a.members[0].dest, av, b.members[0].dest, bv, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSameSliceRefusal: a repeated offset is refused naming the first
// member that repeats one and the member it repeats, whether or not the
// cluster fits the device.
func TestSameSliceRefusal(t *testing.T) {
	d := dev4(t)
	for _, tc := range []struct {
		name string
		ys   []int64
		want string
	}{
		{"fits", []int64{0, 1, 2, 1, 0}, "place: b and d are constrained to the same slice"},
		{"too tall", []int64{0, 40, 2, 40, 2}, "place: b and d are constrained to the same slice"},
		{"too tall, later run first", []int64{0, 40, 2, 2, 40}, "place: c and d are constrained to the same slice"},
	} {
		f := &asm.Func{Name: "f"}
		for i, y := range tc.ys {
			f.Body = append(f.Body, asm.Instr{Dest: string(rune('a' + i)), Name: "lut",
				Loc: asm.Loc{Prim: ir.ResLut, X: asm.VarPlus("x", 0), Y: asm.VarPlus("y", y)}})
		}
		if _, err := buildClusters(f, d); err == nil || err.Error() != tc.want {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
}
