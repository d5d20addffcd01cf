package server

import (
	"bytes"
	"encoding/json"
	"unicode/utf8"
)

// Wire frames (DESIGN.md §8). Artifact bytes are produced once — by
// render, or read back from a checksum-verified disk frame — and from then
// on are only appended into an envelope and sliced back out of one; they
// never pass through encoding/json again. This file is the one place that
// knows the byte layout of those envelopes: AppendJSON writes it,
// ParseCompileFrame and decodeSummary read it, and both tiers use them.
// The same reader slices a /batch request's kernels out of its body
// (sliceKernels), so a router forwards them without a second decode.

// appendString appends s as a JSON string, byte-identical to json.Marshal.
// A string of printable ASCII with nothing to escape (every name, family,
// cache mark and key in practice) is copied between quotes; anything else
// takes encoding/json's own escaper.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			// A string always marshals.
			esc, _ := json.Marshal(s)
			return append(dst, esc...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendJSON appends the response exactly as json.Marshal renders a
// CompileResponse, without the artifact being scanned: it is copied.
func (r CompileResponseWire) AppendJSON(dst []byte) []byte {
	dst = appendString(append(dst, `{"name":`...), r.Name)
	dst = appendString(append(dst, `,"family":`...), r.Family)
	dst = appendString(append(dst, `,"cache":`...), r.Cache)
	dst = appendString(append(dst, `,"key":`...), r.Key)
	dst = append(dst, `,"artifact":`...)
	if len(r.Artifact) == 0 {
		dst = append(dst, "null"...)
	}
	return append(append(dst, r.Artifact...), '}')
}

// AppendJSON appends the result exactly as json.Marshal renders a
// BatchKernelResult whose artifact, when it has none, is omitted.
func (r BatchKernelResultWire) AppendJSON(dst []byte) []byte {
	dst = r.appendHead(dst)
	return append(append(dst, r.Artifact...), '}')
}

// appendHead appends the result's rendering up to its artifact: all of it
// but the artifact's bytes and the closing brace.
func (r BatchKernelResultWire) appendHead(dst []byte) []byte {
	dst = appendString(append(dst, `{"name":`...), r.Name)
	dst = append(dst, `,"ok":`...)
	if r.OK {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	for _, f := range [...]struct{ key, val string }{
		{`,"cache":`, r.Cache}, {`,"error":`, r.Error}, {`,"error_code":`, r.ErrorCode},
	} {
		if f.val != "" {
			dst = appendString(append(dst, f.key...), f.val)
		}
	}
	if len(r.Artifact) > 0 {
		dst = append(dst, `,"artifact":`...)
	}
	return dst
}

// AppendJSON appends the variant exactly as json.Marshal renders it: it
// carries no artifact, so it stays on encoding/json (a name, flags and
// numbers: Marshal cannot fail).
func (v ExploreVariant) AppendJSON(dst []byte) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
}

// frameReader walks a frame left to right by the layout AppendJSON and
// render write. ok goes false at the first byte that is not where that
// layout puts it, and stays false.
type frameReader struct {
	b  []byte
	ok bool
}

// lit consumes the literal s.
func (f *frameReader) lit(s string) {
	if f.ok = f.ok && len(f.b) >= len(s) && string(f.b[:len(s)]) == s; f.ok {
		f.b = f.b[len(s):]
	}
}

// str consumes one JSON string and returns its contents, still escaped.
// Only the closing quote is looked for — an unescaped '"' preceded by an
// even run of backslashes — so a long string costs a memchr, not a decode.
func (f *frameReader) str() []byte {
	f.lit(`"`)
	for end := 0; f.ok; end++ {
		i := bytes.IndexByte(f.b[end:], '"')
		if f.ok = i >= 0; !f.ok {
			break
		}
		end += i
		slashes := 0
		for slashes < end && f.b[end-1-slashes] == '\\' {
			slashes++
		}
		if slashes%2 == 0 {
			s := f.b[:end]
			f.b = f.b[end+1:]
			return s
		}
	}
	return nil
}

// space skips whitespace.
func (f *frameReader) space() {
	for len(f.b) > 0 && (f.b[0] == ' ' || f.b[0] == '\t' || f.b[0] == '\n' || f.b[0] == '\r') {
		f.b = f.b[1:]
	}
}

// tok consumes c, after whitespace, when it is next.
func (f *frameReader) tok(c byte) bool {
	if f.space(); !f.ok || len(f.b) == 0 || f.b[0] != c {
		return false
	}
	f.b = f.b[1:]
	return true
}

// value steps over one value, after whitespace, and returns its bytes.
// Only a well-formed document is read this way: a value is stepped over
// by its delimiters, not checked.
func (f *frameReader) value() []byte {
	f.space()
	start := f.b
	switch {
	case !f.ok || len(f.b) == 0:
		f.ok = false
	case f.b[0] == '"':
		f.str()
	case f.b[0] == '{' || f.b[0] == '[':
		for depth := 0; f.ok; {
			if f.ok = len(f.b) > 0; !f.ok {
				break
			}
			switch f.b[0] {
			case '"':
				f.str()
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			if f.b = f.b[1:]; depth == 0 {
				break
			}
		}
	default: // a number, true, false or null: it runs to the next delimiter
		n := bytes.IndexAny(f.b, ",}] \t\n\r")
		if n < 0 {
			n = len(f.b)
		}
		f.ok, f.b = n > 0, f.b[n:]
	}
	if !f.ok {
		return nil
	}
	return start[:len(start)-len(f.b)]
}

// sliceKernels returns each element of body's top-level "kernels" array as
// the bytes json.Unmarshal into []json.RawMessage yields — a slice of body,
// not a copy — reading body once without decoding it. ok is false, and
// the caller decodes instead, on any shape this scan does not read
// plainly: no object, no kernels array, a member name that is escaped or
// not ASCII (encoding/json matches names by Unicode case folding), a
// case variant of "kernels" or a second "kernels", or anything but
// whitespace after the object. Only an admitted body, which decodes, is
// sliced; on one that does not, the result means nothing.
func sliceKernels(body []byte) (kernels []json.RawMessage, ok bool) {
	f := frameReader{b: body, ok: true}
	if !f.tok('{') {
		return nil, false
	}
	found := false
	for members := 0; !f.tok('}'); members++ {
		if members > 0 && !f.tok(',') {
			return nil, false
		}
		f.space()
		name := f.str()
		if !f.ok || !plainName(name) || !f.tok(':') {
			return nil, false
		}
		switch {
		case string(name) == "kernels" && !found:
			found = true
			if kernels = f.array(); !f.ok {
				return nil, false
			}
		case bytes.EqualFold(name, []byte("kernels")):
			return nil, false
		default:
			if f.value(); !f.ok {
				return nil, false
			}
		}
	}
	f.space()
	return kernels, found && f.ok && len(f.b) == 0
}

// plainName reports whether a member name, still escaped, holds no escape
// and no byte outside ASCII, so it can be compared as bytes.
func plainName(name []byte) bool {
	for _, c := range name {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// array steps over one array, after whitespace, and returns its elements'
// bytes.
func (f *frameReader) array() []json.RawMessage {
	if f.ok = f.tok('['); !f.ok {
		return nil
	}
	elems := []json.RawMessage{}
	if f.tok(']') {
		return elems
	}
	for {
		v := f.value()
		if !f.ok {
			return nil
		}
		elems = append(elems, v)
		if f.tok(']') {
			return elems
		}
		if f.ok = f.tok(','); !f.ok {
			return nil
		}
	}
}

// decodeSummary reads the fixed-size fields off the tail of a rendered
// artifact: the three program texts in front of them are stepped over, not
// scanned, and only the short remainder is decoded.
func decodeSummary(artifact []byte) (sum summary, ok bool) {
	f := frameReader{b: artifact, ok: true}
	f.lit(`{"asm":`)
	f.str()
	f.lit(`,"placed":`)
	f.str()
	f.lit(`,"verilog":`)
	f.str()
	f.lit(`,`)
	if !f.ok {
		return sum, false
	}
	tail := append(append(make([]byte, 0, 1+len(f.b)), '{'), f.b...)
	return sum, json.Unmarshal(tail, &sum) == nil
}

// ParseCompileFrame is the inverse of CompileResponseWire.AppendJSON: the
// fields of a /compile 200 a relaying tier reads, with the artifact as a
// slice of body, and the artifact's degraded mark, read on the walk that
// checks the artifact's layout, so the relay need not walk it again. A
// body in another layout (a backend of another version), or with a string
// field that holds an escape, is decoded in full instead and its artifact
// rendered afresh; ok is false when that fails too.
func ParseCompileFrame(body []byte) (r CompileResponseWire, degraded, ok bool) {
	f := frameReader{b: bytes.TrimSuffix(body, []byte("\n")), ok: true}
	var fields [4][]byte
	for i, lit := range [...]string{`{"name":`, `,"family":`, `,"cache":`, `,"key":`} {
		f.lit(lit)
		fields[i] = f.str()
		f.ok = f.ok && bytes.IndexByte(fields[i], '\\') < 0 && utf8.Valid(fields[i])
	}
	f.lit(`,"artifact":`)
	if f.ok && len(f.b) > 0 && f.b[len(f.b)-1] == '}' {
		artifact := f.b[:len(f.b)-1]
		if sum, ok := decodeSummary(artifact); ok {
			return CompileResponseWire{Name: string(fields[0]), Family: string(fields[1]), Cache: string(fields[2]),
				Key: string(fields[3]), Artifact: artifact}, sum.Degraded, true
		}
	}
	var resp CompileResponse
	if json.Unmarshal(body, &resp) != nil {
		return CompileResponseWire{}, false, false
	}
	// ArtifactJSON is strings and numbers; Marshal cannot fail.
	artifact, _ := json.Marshal(resp.Artifact)
	return CompileResponseWire{Name: resp.Name, Family: resp.Family, Cache: resp.Cache, Key: resp.Key, Artifact: artifact},
		resp.Artifact.Degraded, true
}
