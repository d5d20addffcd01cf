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
	h := sha256.New()
	buf := make([]byte, 0, 128)
	emit := func(parts ...string) {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p...)
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	emit("psig", dev.Name,
		strconv.Itoa(dev.Height),
		strconv.Itoa(dev.NumCols(ir.ResLut)),
		strconv.Itoa(dev.NumCols(ir.ResDsp)),
		strconv.FormatBool(opts.Shrink),
		strconv.Itoa(opts.MaxSteps))
	for _, c := range clusters {
		emit("cl", c.prim.String())
		for _, m := range c.members {
			emit("m",
				strconv.Itoa(m.xoff), strconv.Itoa(m.yoff),
				strconv.Itoa(m.xlit), strconv.Itoa(m.ylit))
		}
	}
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
