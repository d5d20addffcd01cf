package cli

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"reticle/internal/interp"
	"reticle/internal/ir"
)

// writeVCD dumps the port activity of one interpreter run as a Value
// Change Dump, the waveform format viewers such as GTKWave read: the
// input trace and the output trace it produced, cycle by cycle. One
// timescale unit is one clock cycle. It gives the paper's "fast,
// convenient way to debug programs without having to actually program an
// FPGA" (§6.2) the same tooling surface a Verilog simulator would.
func writeVCD(w io.Writer, f *ir.Func, in, out interp.Trace) error {
	if len(in) != len(out) {
		return fmt.Errorf("vcd: input trace has %d cycles, output %d", len(in), len(out))
	}
	type sig struct {
		name string
		typ  ir.Type
		id   string
		out  bool
	}
	var sigs []sig
	next := 0
	idFor := func() string {
		// Printable VCD identifier codes: '!' .. '~'.
		const lo, hi = 33, 126
		var b []byte
		n := next
		next++
		for {
			b = append(b, byte(lo+n%(hi-lo+1)))
			n = n/(hi-lo+1) - 1
			if n < 0 {
				break
			}
		}
		return string(b)
	}
	for _, p := range f.Inputs {
		sigs = append(sigs, sig{name: p.Name, typ: p.Type, id: idFor()})
	}
	for _, p := range f.Outputs {
		sigs = append(sigs, sig{name: p.Name, typ: p.Type, id: idFor(), out: true})
	}
	sort.SliceStable(sigs, func(i, j int) bool { return sigs[i].name < sigs[j].name })

	var b strings.Builder
	b.WriteString("$comment reticle interpreter trace $end\n")
	b.WriteString("$timescale 1ns $end\n")
	fmt.Fprintf(&b, "$scope module %s $end\n", f.Name)
	for _, s := range sigs {
		fmt.Fprintf(&b, "$var wire %d %s %s $end\n", s.typ.Bits(), s.id, s.name)
	}
	b.WriteString("$upscope $end\n$enddefinitions $end\n")

	last := map[string]string{}
	for cycle := range in {
		header := false
		emit := func(s sig, v ir.Value) {
			bits := bitsOf(v)
			if last[s.id] == bits {
				return
			}
			last[s.id] = bits
			if !header {
				fmt.Fprintf(&b, "#%d\n", cycle)
				header = true
			}
			if s.typ.Bits() == 1 {
				fmt.Fprintf(&b, "%s%s\n", bits, s.id)
			} else {
				fmt.Fprintf(&b, "b%s %s\n", bits, s.id)
			}
		}
		for _, s := range sigs {
			var v ir.Value
			var ok bool
			if s.out {
				v, ok = out[cycle][s.name]
			} else {
				v, ok = in[cycle][s.name]
			}
			if !ok {
				return fmt.Errorf("vcd: cycle %d: no value for %s", cycle, s.name)
			}
			emit(s, v)
		}
	}
	fmt.Fprintf(&b, "#%d\n", len(in))
	_, err := io.WriteString(w, b.String())
	return err
}

// bitsOf renders a value as a binary string (MSB first), lane 0 in the
// low bits. Lanes are rendered independently so wide vectors never
// overflow a machine word.
func bitsOf(v ir.Value) string {
	t := v.Type()
	w := t.Width()
	out := make([]byte, t.Bits())
	for lane := 0; lane < t.Lanes(); lane++ {
		bits := v.Uint(lane)
		for i := 0; i < w; i++ {
			// Bit i of this lane sits at global position lane*w + i,
			// counted from the LSB; the string is MSB first.
			pos := len(out) - 1 - (lane*w + i)
			if bits>>uint(i)&1 == 1 {
				out[pos] = '1'
			} else {
				out[pos] = '0'
			}
		}
	}
	return string(out)
}
