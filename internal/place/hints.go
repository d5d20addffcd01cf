// Cross-request placement hints: a successful placement records its
// final anchor solution as an Anchors value, and a later placement of a
// structurally identical program (same clusters, same device, same
// options — checked by an explicit problem signature, never assumed)
// adopts that solution outright, spending zero solver steps. Hints
// whose signature does not match are ignored.
//
// Adoption is exact. The signature pins every input of the search —
// cluster geometry and order, device, bounds, step budget — so by
// determinism the recorded solution IS the solution a cold solve would
// find, and the placed program is byte-identical to a cold compile. The
// pipeline's hint cache relies on this: cached artifacts must not
// depend on what happened to be in the hint cache.
package place

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"reticle/internal/device"
	"reticle/internal/ir"
)

// Anchors is a recorded placement solution: one anchor slice id per
// cluster in body order, tagged with the problem signature it solves and
// the solver steps the recording compile spent. It is the value stored
// in the placement hint cache (internal/hintcache) and marshals to JSON
// for the on-disk hint store.
type Anchors struct {
	// Signature identifies the exact placement problem the solution
	// solves; see problemSignature.
	Signature string `json:"signature"`
	// Sol holds the anchor slice id chosen for each cluster.
	Sol []int `json:"sol"`
	// ColdSteps is the solver steps the compile that recorded this
	// solution spent — the steps an adoption saves. Carried through
	// adoptions unchanged, so repeated edits keep reporting the true
	// cold cost.
	ColdSteps int `json:"cold_steps"`
}

// problemSignature hashes every input of the placement search: the
// device (name and the dimensions the domains are built from), the
// options that steer the search, and the full cluster list — order,
// primitive, and per-member geometry (offsets and literal pins). Two
// placements with equal signatures run the identical deterministic
// search, so a recorded solution may be adopted as this solve's answer.
func problemSignature(dev *device.Device, opts Options, clusters []*cluster) string {
	// Each field is written NUL-terminated, in one buffer flushed to the
	// hash as it fills.
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	str := func(s string) { buf = append(append(buf, s...), 0) }
	num := func(n int) { buf = append(strconv.AppendInt(buf, int64(n), 10), 0) }
	str("psig")
	str(dev.Name)
	num(dev.Height)
	num(dev.NumCols(ir.ResLut))
	num(dev.NumCols(ir.ResDsp))
	str(strconv.FormatBool(opts.Shrink))
	num(opts.MaxSteps)
	for _, c := range clusters {
		str("cl")
		str(c.prim.String())
		for _, m := range c.members {
			str("m")
			num(m.xoff)
			num(m.yoff)
			num(m.xlit)
			num(m.ylit)
		}
		if len(buf) >= 3072 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// adoptable reports whether hints may be adopted as this problem's
// solution outright: exact signature match, a solution of the right
// shape, and — belt and braces, since a cache can serve anything — the
// solution revalidates against the device under the given bounds.
func adoptable(hints *Anchors, sig string, clusters []*cluster, dev *device.Device, bounds map[ir.Resource][2]int) bool {
	if hints == nil || hints.Signature != sig || len(hints.Sol) != len(clusters) {
		return false
	}
	return revalidate(clusters, dev, hints.Sol, bounds)
}
