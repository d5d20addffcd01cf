package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"

	"reticle"
	"reticle/internal/interp"
	"reticle/internal/irgen"
	"reticle/internal/place"
	"reticle/internal/server"
)

// oracleCycles is the length of the random input trace each checked
// artifact is co-simulated over.
const oracleCycles = 16

// famTarget is what the oracle needs to know about a family. It builds no
// compiler: the reference is the IR interpreter, never the code under test.
type famTarget struct {
	target *reticle.TargetDesc
	device *reticle.Device
}

func famTargets() map[string]famTarget {
	return map[string]famTarget{
		famUltrascale: {reticle.UltraScale(), reticle.XCZU3EG()},
		famAgilex:     {reticle.Agilex(), reticle.AGF014()},
	}
}

// checkArtifact applies the three artifact checks to one served artifact
// against the source IR that was sent:
//
//  1. the placed assembly is a valid placement of the unplaced assembly
//     on the family's device (place.Verify);
//  2. the placed assembly, expanded through its TDL semantics and
//     interpreted, equals the reference interpretation of the source IR
//     over a seeded random trace;
//  3. the artifact is not degraded.
func checkArtifact(ft famTarget, srcIR string, art *server.ArtifactJSON, traceSeed int64) error {
	if art.Degraded {
		return fmt.Errorf("degraded artifact (%s)", art.DegradedReason)
	}
	src, err := reticle.ParseIR(srcIR)
	if err != nil {
		return fmt.Errorf("source IR: %w", err)
	}
	unplaced, err := reticle.ParseAsm(art.Asm)
	if err != nil {
		return fmt.Errorf("artifact asm: %w", err)
	}
	placed, err := reticle.ParseAsm(art.Placed)
	if err != nil {
		return fmt.Errorf("artifact placed: %w", err)
	}
	if err := place.Verify(unplaced, placed, ft.device); err != nil {
		return fmt.Errorf("placement invalid: %w", err)
	}
	trace := irgen.RandomTrace(rand.New(rand.NewSource(traceSeed)), src, oracleCycles)
	want, err := reticle.Interpret(src, trace)
	if err != nil {
		return fmt.Errorf("reference interpreter: %w", err)
	}
	got, err := reticle.InterpretAsm(placed, ft.target, trace)
	if err != nil {
		return fmt.Errorf("interpret placed assembly: %w", err)
	}
	if !interp.Equal(want, got) {
		return errors.New("placed assembly computes something else than the source IR")
	}
	return nil
}

// kernelIRs reads the source IR of every kernel a request carries back
// out of the body that was sent.
func kernelIRs(r request) ([]string, error) {
	switch r.path {
	case "/compile":
		var cr server.CompileRequest
		if err := json.Unmarshal(r.body, &cr); err != nil {
			return nil, err
		}
		return []string{cr.IR}, nil
	case "/batch":
		var br server.BatchRequest
		if err := json.Unmarshal(r.body, &br); err != nil {
			return nil, err
		}
		irs := make([]string, len(br.Kernels))
		for i, k := range br.Kernels {
			irs[i] = k.IR
		}
		return irs, nil
	case "/explore":
		var er server.ExploreRequest
		if err := json.Unmarshal(r.body, &er); err != nil {
			return nil, err
		}
		return []string{er.IR}, nil
	}
	return nil, fmt.Errorf("unknown path %s", r.path)
}

// checkResponse validates one kept 200 reply in full. For /compile it
// runs checkArtifact; for /batch it requires every kernel ok and checks
// the artifact of the first kernel the servers had not seen; for
// /explore it requires a complete sweep with a frontier.
func checkResponse(fts map[string]famTarget, r request, body []byte, traceSeed int64) error {
	ft, ok := fts[r.family]
	if !ok {
		return fmt.Errorf("no target for family %q", r.family)
	}
	irs, err := kernelIRs(r)
	if err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	switch r.path {
	case "/compile":
		var resp server.CompileResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("response body: %w", err)
		}
		return checkArtifact(ft, irs[0], &resp.Artifact, traceSeed)
	case "/batch":
		var resp server.BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("response body: %w", err)
		}
		if len(resp.Results) != len(irs) {
			return fmt.Errorf("batch returned %d results for %d kernels", len(resp.Results), len(irs))
		}
		for i, res := range resp.Results {
			if !res.OK {
				return fmt.Errorf("batch kernel %d failed: %s", i, res.Error)
			}
		}
		for i, hot := range r.hot {
			if hot < 0 {
				return checkArtifact(ft, irs[i], &resp.Results[i].Artifact, traceSeed)
			}
		}
		return nil
	default:
		var resp server.ExploreResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("response body: %w", err)
		}
		if resp.Partial || len(resp.Frontier) == 0 || len(resp.Variants) == 0 {
			return fmt.Errorf("sweep incomplete: partial=%t, %d variants, %d frontier points",
				resp.Partial, len(resp.Variants), len(resp.Frontier))
		}
		for _, v := range resp.Variants {
			if !v.OK || v.Degraded {
				return fmt.Errorf("variant %s: ok=%t degraded=%t %s", v.ID, v.OK, v.Degraded, v.Error)
			}
		}
		return nil
	}
}

// sameOutsideCache reports whether two /compile replies are byte-identical
// once the cache field, the only one allowed to differ between a served
// miss and a served hit, is set aside.
func sameOutsideCache(a, b []byte) bool {
	mask := func(x []byte) []byte {
		return bytes.Replace(x, []byte(`"cache":"miss"`), []byte(`"cache":"hit"`), 1)
	}
	return bytes.Equal(mask(a), mask(b))
}
