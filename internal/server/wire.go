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
		dst = append(append(dst, `,"artifact":`...), r.Artifact...)
	}
	return append(dst, '}')
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

// ArtifactDegraded reports whether a rendered artifact carries the degraded
// mark; one that does, or that is not a rendered artifact at all, is served
// to whoever asked but stored nowhere.
func ArtifactDegraded(artifact []byte) bool {
	sum, ok := decodeSummary(artifact)
	return !ok || sum.Degraded
}

// ParseCompileFrame is the inverse of CompileResponseWire.AppendJSON for
// the two fields a relaying tier reads out of a /compile 200: the cache
// mark, and the artifact as a slice of body. A body in another layout (a
// backend of another version) is decoded in full instead and its artifact
// rendered afresh; ok is false when that fails too.
func ParseCompileFrame(body []byte) (cache string, artifact []byte, ok bool) {
	f := frameReader{b: bytes.TrimSuffix(body, []byte("\n")), ok: true}
	f.lit(`{"name":`)
	f.str()
	f.lit(`,"family":`)
	f.str()
	f.lit(`,"cache":`)
	mark := f.str()
	f.lit(`,"key":`)
	f.str()
	f.lit(`,"artifact":`)
	if f.ok && len(f.b) > 0 && f.b[len(f.b)-1] == '}' && bytes.IndexByte(mark, '\\') < 0 && utf8.Valid(mark) {
		artifact = f.b[:len(f.b)-1]
		if _, ok := decodeSummary(artifact); ok {
			return string(mark), artifact, true
		}
	}
	var resp CompileResponse
	if json.Unmarshal(body, &resp) != nil {
		return "", nil, false
	}
	// ArtifactJSON is strings and numbers; Marshal cannot fail.
	artifact, _ = json.Marshal(resp.Artifact)
	return resp.Cache, artifact, true
}
