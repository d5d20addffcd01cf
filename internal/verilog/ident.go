package verilog

// keywords are the reserved words of Verilog-2005 (IEEE 1364-2005,
// Annex B). None of them may name a net, port, instance or module.
var keywords = func() map[string]bool {
	m := make(map[string]bool)
	for _, k := range [...]string{
		"always", "and", "assign", "automatic", "begin", "buf", "bufif0", "bufif1",
		"case", "casex", "casez", "cell", "cmos", "config", "deassign", "default",
		"defparam", "design", "disable", "edge", "else", "end", "endcase",
		"endconfig", "endfunction", "endgenerate", "endmodule", "endprimitive",
		"endspecify", "endtable", "endtask", "event", "for", "force", "forever",
		"fork", "function", "generate", "genvar", "highz0", "highz1", "if",
		"ifnone", "incdir", "include", "initial", "inout", "input", "instance",
		"integer", "join", "large", "liblist", "library", "localparam",
		"macromodule", "medium", "module", "nand", "negedge", "nmos", "nor",
		"noshowcancelled", "not", "notif0", "notif1", "or", "output", "parameter",
		"pmos", "posedge", "primitive", "pull0", "pull1", "pulldown", "pullup",
		"pulsestyle_ondetect", "pulsestyle_onevent", "rcmos", "real", "realtime",
		"reg", "release", "repeat", "rnmos", "rpmos", "rtran", "rtranif0",
		"rtranif1", "scalared", "showcancelled", "signed", "small", "specify",
		"specparam", "strong0", "strong1", "supply0", "supply1", "table", "task",
		"time", "tran", "tranif0", "tranif1", "tri", "tri0", "tri1", "triand",
		"trior", "trireg", "unsigned", "use", "uwire", "vectored", "wait", "wand",
		"weak0", "weak1", "while", "wire", "wor", "xnor", "xor",
	} {
		m[k] = true
	}
	return m
}()

// IsIdent reports whether s is a simple identifier: an ASCII letter or
// underscore, then ASCII letters, digits, underscores and dollar signs,
// and not a keyword.
func IsIdent(s string) bool {
	if s == "" || !identStart(s[0]) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !identStart(c) && !('0' <= c && c <= '9') && c != '$' {
			return false
		}
	}
	return !keywords[s]
}

func identStart(c byte) bool { return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

// Ident spells s as a simple identifier. An identifier is returned as
// it is; a keyword gains a trailing '$'; anything else becomes 'u'
// followed by its bytes, where each byte that could not stand at its
// place in an identifier without '$' is written as '$' and two hex
// digits. Over names without '$' Ident is injective, and every name it
// changes gains a '$', so a renamed name meets no name left as it was.
func Ident(s string) string {
	if IsIdent(s) {
		return s
	}
	if keywords[s] {
		return s + "$"
	}
	const hex = "0123456789abcdef"
	b := make([]byte, 0, 1+3*len(s))
	b = append(b, 'u')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if identStart(c) || i > 0 && '0' <= c && c <= '9' {
			b = append(b, c)
		} else {
			b = append(b, '$', hex[c>>4], hex[c&15])
		}
	}
	return string(b)
}
