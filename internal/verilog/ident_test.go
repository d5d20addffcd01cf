package verilog

import "testing"

// TestIdent: identifiers pass through, keywords and other names come
// out as distinct identifiers that each contain a '$'.
func TestIdent(t *testing.T) {
	seen := map[string]string{}
	for _, c := range []struct{ in, want string }{
		{"x", "x"}, {"t12_lut0", "t12_lut0"}, {"_a", "_a"}, {"wire", "wire$"}, {"module", "module$"},
		{"é", "u$c3$a9"}, {"xé", "ux$c3$a9"}, {"1a", "u$31a"}, {"a-b", "ua$2db"}, {"Wire", "Wire"},
	} {
		got := Ident(c.in)
		if got != c.want {
			t.Errorf("Ident(%q) = %q, want %q", c.in, got, c.want)
		}
		if !IsIdent(got) {
			t.Errorf("Ident(%q) = %q is not an identifier", c.in, got)
		}
		if prev, ok := seen[got]; ok {
			t.Errorf("Ident(%q) = Ident(%q) = %q", c.in, prev, got)
		}
		seen[got] = c.in
	}
}
