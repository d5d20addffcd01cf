package server_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"reticle/internal/server"
)

// requestSeeds are /compile bodies in the shapes clients send, then the
// shapes the reader must leave to the decoder.
var requestSeeds = []string{
	`{"ir":"def f() -> () {}"}`,
	"{\"name\":\"re\\\"lay <1>\",\"family\":\"agilex\",\"ir\":\"def f(a:i8) -> (y:i8) {\\n    y:i8 = id(a);\\n}\\n\",\"timeout_ms\":250}",
	" {\n\t\"ir\" : \"x\" , \"timeout_ms\" : -0 }\r\n",
	`{"ir":"é😀\/\b\f\n\r\t\\\"","name":"üñí ✓","timeout_ms":9223372036854775807}`,
	`{}`,
	`{"ir":"x","timeout_ms":0,"family":""}`,
	// The decoder's: escaped, case-variant or unknown names, repeats.
	`{"\u0069r":"x"}`,
	`{"IR":"x"}`,
	"{\"timeout_m\u017f\":5}", // a long s folds to 's'
	`{"ir":"x","jobs":1}`,
	`{"ir":"x","ir":"y"}`,
	// Values of another type or not integers.
	`{"ir":null}`,
	`{"ir":1}`,
	`{"timeout_ms":1.5}`,
	`{"timeout_ms":1e3}`,
	`{"timeout_ms":01}`,
	`{"timeout_ms":"1"}`,
	`{"timeout_ms":9223372036854775808}`,
	`{"timeout_ms":-}`,
	`{"timeout_ms":null}`,
	// Strings the decoder refuses or repairs.
	"{\"ir\":\"a\tb\"}",
	"{\"ir\":\"\xff\"}",
	`{"ir":"\ud83d"}`,
	`{"ir":"\ude00\ud83d"}`,
	`{"ir":"\ud83dA"}`,
	`{"ir":"\x"}`,
	`{"ir":"\u12"}`,
	// Not one object.
	`{"ir":"x"} {}`,
	`{"ir":"x"}x`,
	`{"ir":"x",}`,
	`{"ir":"x"`,
	`{"ir" "x"}`,
	`[]`,
	`null`,
	``,
}

// TestReadCompileRequestFastPath: the bodies clients send are read
// without encoding/json, and each shape the reader does not read plainly
// is left to the decoder.
func TestReadCompileRequestFastPath(t *testing.T) {
	for i, body := range requestSeeds {
		_, ok := server.ReadCompileRequest([]byte(body))
		if want := i < 6; ok != want {
			t.Errorf("%q: read %v, want %v", body, ok, want)
		}
	}
}

// checkRequest fails t when the reader accepts body and the decoder
// decodes it to another request, or refuses it.
func checkRequest(t *testing.T, body []byte) bool {
	t.Helper()
	got, ok := server.ReadCompileRequest(body)
	if !ok {
		return false
	}
	var want server.CompileRequest
	if err := server.DecodeBody(body, &want); err != nil {
		t.Fatalf("%q: read as %+v, the decoder refuses it: %v", body, got, err)
	}
	if got != want {
		t.Fatalf("%q: read as %+v, decoded as %+v", body, got, want)
	}
	return true
}

// FuzzDecodeRequest: any body the plain reader accepts decodes to the
// same CompileRequest; it never panics.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkRequest(t, body) })
}

// TestReadCompileRequestMatchesDecode draws bodies from the pieces a
// /compile body is made of, plain and hostile alike, and holds the reader
// to the decoder on every one it accepts.
func TestReadCompileRequestMatchesDecode(t *testing.T) {
	names := []string{`"ir"`, `"name"`, `"family"`, `"timeout_ms"`, `"Name"`, `"ir"`, `"jobs"`}
	strs := []string{`"x"`, `""`, `"def f() -> () {}\n"`, `"\"\\\/\b\f\n\r\t"`, `"é😀"`,
		`"\ud800"`, "\"\xff\"", "\"a\x01\"", `"é✓"`, `"<&>"`}
	nums := []string{`0`, `-0`, `250`, `-1`, `1.5`, `1e3`, `01`, `9223372036854775807`, `9223372036854775808`, `null`, `true`}
	spaces := []string{"", "", " ", "\n\t", "\r"}
	rng := rand.New(rand.NewSource(1))
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	accepted := 0
	const bodies = 20000
	for n := 0; n < bodies; n++ {
		var b strings.Builder
		b.WriteString(pick(spaces) + "{")
		for m := rng.Intn(5); m > 0; m-- {
			b.WriteString(pick(spaces) + pick(names) + pick(spaces) + ":" + pick(spaces))
			if rng.Intn(3) == 0 {
				b.WriteString(pick(nums))
			} else {
				b.WriteString(pick(strs))
			}
			if m > 1 {
				b.WriteString(pick(spaces) + ",")
			}
		}
		b.WriteString(pick(spaces) + "}" + pick(spaces))
		if rng.Intn(20) == 0 {
			b.WriteString(pick([]string{"{}", "x", ","}))
		}
		if checkRequest(t, []byte(b.String())) {
			accepted++
		}
	}
	if accepted < bodies/10 {
		t.Errorf("the reader accepted %d of %d bodies: the fast path is not being exercised", accepted, bodies)
	}
	t.Logf("%d of %d bodies read without encoding/json", accepted, bodies)
}

// TestDecodeRequestEquivalentToJSON: the decoder itself is encoding/json
// with unknown fields refused, so what it and the reader agree on is what
// json.Unmarshal reads.
func TestDecodeRequestEquivalentToJSON(t *testing.T) {
	for _, body := range requestSeeds[:6] {
		var a, b server.CompileRequest
		if err := json.Unmarshal([]byte(body), &a); err != nil {
			t.Fatal(err)
		}
		if err := server.DecodeBody([]byte(body), &b); err != nil || a != b {
			t.Errorf("%q: decoder %+v (%v), json.Unmarshal %+v", body, b, err, a)
		}
	}
}
