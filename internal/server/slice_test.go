package server_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"reticle/internal/server"
)

// sliceSeeds are /batch bodies in the shapes clients send, and the shapes
// the scan must hand to the decoder.
var sliceSeeds = []string{
	`{"kernels":[{"ir":"def f() -> () {}"}]}`,
	`{"jobs":2,"kernels":[{"name":"a","ir":"x"},null,{"ir":"y \"quoted\" \\\\"}],"stream":true}`,
	" {\n\t\"kernels\" : [ {\"ir\":\"x\"} , {\"ir\":\"}]\"} ] ,\"family\":\"agilex\" }\n",
	`{"family":"ultrascale","timeout_ms":5,"kernels":[{"ir":"<","name":"é"}],"x":{"kernels":[1]}}`,
	`{"kernels":[]}`,
	`{"kernels":[1,true,"s",{"a":[{}]},[],-1.5e3]}`,
	`{"Kernels":[{"ir":"x"}]}`,
	`{"kernels":[{"ir":"x"}],"KERNELS":[{"ir":"y"}]}`,
	`{"kernels":[{"ir":"x"}],"kernels":[{"ir":"y"}]}`,
	`{"\u006bernels":[{"ir":"x"}]}`,
	"{\"Kernels\":[{\"ir\":\"x\"}]}", // a Kelvin sign folds to 'k'
	`{"kernels":[{"ir":"x"}],"é":1}`,
	`{"kernels":null}`,
	`{"kernels":[{"ir":"x"}]} {}`,
	`[]`,
	``,
}

// TestSliceKernelsFastPath: the bodies clients send are read by the scan,
// not decoded, and each shape the scan does not read plainly is left to
// the decoder.
func TestSliceKernelsFastPath(t *testing.T) {
	for i, body := range sliceSeeds {
		_, ok := server.SliceKernels([]byte(body))
		if want := i < 6; ok != want {
			t.Errorf("%q: scanned %v, want %v", body, ok, want)
		}
	}
}

// FuzzSliceKernels: wherever the scan answers for a body json.Unmarshal
// accepts, it answers the kernels json.Unmarshal into []json.RawMessage
// finds, byte for byte; it never panics.
func FuzzSliceKernels(f *testing.F) {
	for _, s := range sliceSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, ok := server.SliceKernels(body)
		var want struct {
			Kernels []json.RawMessage `json:"kernels"`
		}
		if json.Unmarshal(body, &want) != nil || !ok {
			return // only an admitted body, which decodes, is scanned; the decoder answers the rest
		}
		if len(got) != len(want.Kernels) {
			t.Fatalf("%q: scanned %d kernels, decoded %d", body, len(got), len(want.Kernels))
		}
		for i := range got {
			if !bytes.Equal(got[i], want.Kernels[i]) {
				t.Fatalf("%q: kernel %d scanned as %q, decoded as %q", body, i, got[i], want.Kernels[i])
			}
		}
	})
}

// TestAppendMembersNonObject: appending members to what a /batch kernel
// slices out as never panics, whatever the slice holds; an object gains
// them as its last, and null (the one non-object an admitted body
// carries) becomes an object of them alone.
func TestAppendMembersNonObject(t *testing.T) {
	const members = `"family":"ultrascale"`
	for obj, want := range map[string]string{
		`{}`:               `{"family":"ultrascale"}`,
		" { } \n":          ` {"family":"ultrascale"}`,
		`{"ir":"}"}`:       `{"ir":"}","family":"ultrascale"}`,
		"{\"ir\":\"x\"}\t": `{"ir":"x","family":"ultrascale"}`,
		`null`:             `{"family":"ultrascale"}`,
	} {
		if got := string(server.AppendMembers([]byte(obj), members)); got != want {
			t.Errorf("%q: got %q, want %q", obj, got, want)
		}
	}
	odd := []string{``, ` `, `}`, `{`, `}{`, ` }`, `"}"`, `]}`, `[]`, `[{}]`, `1`, `true`, `"s"`, `-1.5e3`}
	if ks, ok := server.SliceKernels([]byte(sliceSeeds[5])); ok {
		for _, k := range ks {
			odd = append(odd, string(k))
		}
	}
	for _, obj := range odd {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%q: panicked: %v", obj, r)
				}
			}()
			server.AppendMembers([]byte(obj), members)
		}()
	}
}
