package place

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/device"
	"reticle/internal/ir"
)

// enumDev is the second device small enough to enumerate: two LUT and
// two DSP columns of three rows, so a macro may span DSP columns.
func enumDev(t *testing.T) *device.Device {
	t.Helper()
	d, err := device.Standard("enumdev", 2, 2, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// enumProg builds, from the choices in data (0 once it runs out), a
// program of one to six LUT and DSP instructions in the shape the engine
// accepts. A singleton's coordinates are each a wildcard, a literal that
// may fall off the device, or a fresh variable with an offset in −2…2; a
// chain of 2–3 members shares one x and one y variable, at offsets that
// may repeat.
func enumProg(data []byte) string {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	plus := func(v string, off int) string {
		switch {
		case off > 0:
			return fmt.Sprintf("%s+%d", v, off)
		case off < 0:
			return fmt.Sprintf("%s%d", v, off)
		}
		return v
	}
	coord := func(v string, lits int) string {
		switch next(8) {
		case 0, 1, 2, 3:
			return "??"
		case 4:
			return fmt.Sprint(next(lits))
		}
		return plus(v, [6]int{0, 0, 0, 1, -1, 2}[next(6)])
	}
	var b strings.Builder
	b.WriteString("def f(a:i8, b:i8) -> (t0:i8) {\n")
	total := 2 + next(6)
	for n, group := 0, 0; n < total; group++ {
		prim := [2]string{"lut", "dsp"}[next(2)]
		if next(3) > 0 {
			fmt.Fprintf(&b, "t%d:i8 = op(a, b) @%s(%s, %s);\n", n, prim,
				coord(fmt.Sprintf("x%d", group), 3), coord(fmt.Sprintf("y%d", group), 5))
			n++
			continue
		}
		base := next(3) - 1
		for k := range min(2+next(2), total-n) {
			fmt.Fprintf(&b, "t%d:i8 = op(a, b) @%s(%s, %s);\n", n, prim,
				plus(fmt.Sprintf("x%d", group), next(4)/3), plus(fmt.Sprintf("y%d", group), base+k+next(5)/4))
			n++
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// shrinkMinimal places f, which must be feasible on dev, with Shrink and
// fails unless each primitive's used extent is the enumerator's
// lexicographic minimum: the fewest rows any placement needs, then the
// fewest columns at that many rows, the order PlaceContext shrinks in.
func shrinkMinimal(t *testing.T, f *asm.Func, dev *device.Device) {
	t.Helper()
	res, err := PlaceContext(context.Background(), f, dev, Options{Shrink: true})
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	validate(t, f, dev, slots(res.Fn))
	used := map[ir.Resource]bool{}
	for _, in := range f.Body {
		if !in.IsWire() {
			used[in.Loc.Prim] = true
		}
	}
	for _, prim := range []ir.Resource{ir.ResLut, ir.ResDsp} {
		if !used[prim] {
			continue
		}
		rows, cols := 1, 1
		for rows < dev.Height && enumerate(f, dev, func(s Slot) bool { return s.Prim != prim || s.Y < rows }) == nil {
			rows++
		}
		for cols < dev.NumCols(prim) && enumerate(f, dev, func(s Slot) bool { return s.Prim != prim || s.Y < rows && s.X < cols }) == nil {
			cols++
		}
		if maxX, maxY := extent(res.Fn, prim); maxY+1 != rows || maxX+1 != cols {
			t.Errorf("%s on %s: shrink uses %d rows x %d columns, the enumerated minimum is %d x %d\n%s",
				prim, dev.Name, maxY+1, maxX+1, rows, cols, f)
		}
	}
}

// FuzzPlaceMatchesEnumeration holds the CSP engine to the enumerator on
// random small programs and two enumerable devices: both find a placement
// or neither does, every engine placement passes Verify and the rules,
// and a shrunk placement reaches the enumerated minimum. The seed corpus
// is 200 generated programs.
func FuzzPlaceMatchesEnumeration(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		seed := make([]byte, 32)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := enumProg(data)
		fn, err := asm.Parse(src)
		if err != nil {
			t.Fatalf("generated program does not parse: %v\n%s", err, src)
		}
		for _, dev := range []*device.Device{satDev(t), enumDev(t)} {
			res, err := PlaceContext(context.Background(), fn, dev, Options{})
			enum := enumerate(fn, dev, nil)
			if (err == nil) != (enum != nil) {
				t.Fatalf("on %s: csp err = %v, enumerator found a placement: %v\n%s", dev.Name, err, enum != nil, src)
			}
			if err != nil {
				continue
			}
			if err := Verify(fn, res.Fn, dev); err != nil {
				t.Fatalf("on %s: %v\n%s", dev.Name, err, src)
			}
			validate(t, fn, dev, slots(res.Fn))
			shrinkMinimal(t, fn, dev)
		}
	})
}
