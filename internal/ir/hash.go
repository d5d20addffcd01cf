package ir

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
)

// CanonicalHash returns a hex-encoded SHA-256 over a canonical rendering
// of the function, the content-addressed identity used by the artifact
// cache (internal/cache).
//
// The rendering is alpha-normalized: every name that is neither an input
// nor an output port — i.e. every internal temporary — is replaced by a
// sequential canonical name in order of first definition, so two
// functions that differ only in the spelling of their temporaries hash
// equal. Everything observable stays in the hash: the function name, the
// interface ports (names and types, in order, because they become Verilog
// module ports), instruction order, opcodes, destination types,
// attributes, argument wiring, and resource annotations on compute
// instructions. Resource bits on wire instructions are ignored, matching
// the printer: they have no meaning there.
//
// Any single mutation of an opcode, a width, an attribute, an argument
// edge, or a compute resource therefore yields a different hash, while
// renaming temporaries does not. Instruction reordering is deliberately
// significant — the pipeline preserves body order, so order is part of
// the artifact's identity.
func CanonicalHash(f *Func) string {
	bp := scratch.Get().(*[]byte)
	b := append((*bp)[:0], "func\x00"...)
	b = append(append(b, f.Name...), 0)

	// One numbering for every name: -1 marks a port, k >= 0 the k-th
	// temporary in definition order; a name that is absent is free. The
	// "p:"/"t:"/"f:" tags keep the three namespaces disjoint.
	num := make(map[string]int32, len(f.Inputs)+len(f.Outputs)+len(f.Body))
	for _, p := range f.Inputs {
		num[p.Name] = -1
		b = append(append(append(b, "in\x00"...), p.Name...), 0)
		b = append(p.Type.AppendTo(b), 0)
	}
	for _, p := range f.Outputs {
		num[p.Name] = -1
		b = append(append(append(b, "out\x00"...), p.Name...), 0)
		b = append(p.Type.AppendTo(b), 0)
	}
	next := int32(0)
	for i := range f.Body {
		if _, ok := num[f.Body[i].Dest]; !ok {
			num[f.Body[i].Dest] = next
			next++
		}
	}
	b = appendHashBody(b, f, false, func(b []byte, n string) []byte {
		switch k, ok := num[n]; {
		case !ok:
			return append(append(b, "f:"...), n...)
		case k < 0:
			return append(append(b, "p:"...), n...)
		default:
			return strconv.AppendInt(append(b, "t:"...), int64(k), 10)
		}
	})
	return hexSum(bp, b)
}

// scratch recycles the append buffers of the printer and the two hashes.
// Each renders a whole function, so a buffer per call would be among the
// largest allocations of a cold request.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// HexSum256 returns the lowercase hex SHA-256 of what fill appends to an
// empty recycled buffer: a key over a whole printed program (package
// pipeline's stage keys) without a buffer per call.
func HexSum256(fill func(b []byte) []byte) string {
	bp := scratch.Get().(*[]byte)
	return hexSum(bp, fill((*bp)[:0]))
}

// hexSum returns the lowercase hex SHA-256 of b and hands b back to the
// scratch pool through bp.
func hexSum(bp *[]byte, b []byte) string {
	sum := sha256.Sum256(b)
	*bp = b
	scratch.Put(bp)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendHashBody appends one NUL-separated record per instruction, the part
// the two hashes share: "ins", the destination as name renders it, type,
// opcode, attributes, "|", the arguments as name renders them, and the
// resource of a compute instruction (empty for a wire). With maskValues the
// attribute values of const and reg are reduced to "#" and their count.
func appendHashBody(b []byte, f *Func, maskValues bool, name func(b []byte, n string) []byte) []byte {
	for i := range f.Body {
		in := &f.Body[i]
		b = append(name(append(b, "ins\x00"...), in.Dest), 0)
		b = append(in.Type.AppendTo(b), 0)
		b = append(append(b, in.Op.String()...), 0)
		if maskValues && (in.Op == OpConst || in.Op == OpReg) {
			b = append(strconv.AppendInt(append(b, '#'), int64(len(in.Attrs)), 10), 0)
		} else {
			for _, a := range in.Attrs {
				b = append(strconv.AppendInt(b, a, 10), 0)
			}
		}
		b = append(b, "|\x00"...)
		for _, a := range in.Args {
			b = append(name(b, a), 0)
		}
		if in.IsCompute() {
			b = append(b, in.Res.String()...)
		}
		b = append(b, 0)
	}
	return b
}
