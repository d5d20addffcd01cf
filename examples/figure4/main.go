// Figure 4: reproduce the paper's motivating experiment. The behavioral
// Fig. 3 program (N parallel i8 additions with a use_dsp hint) exhausts the
// device's 360 DSPs by N = 512 and silently spills onto LUTs, while the
// hand-optimized structural version — which Reticle expresses directly with
// vector types — needs only N/4 DSPs and no LUTs.
//
//	go run ./examples/figure4
package main

import (
	"fmt"
	"log"

	"reticle/internal/eval"
)

func main() {
	secs, err := eval.Sections("4", "", eval.Config{}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Figure 4: DSP and LUT utilization, behavioral+hint vs structural vectorized")
	fmt.Println("(device: xczu3eg-like, 360 DSPs)")
	fmt.Println()
	fmt.Print(secs[0].Tables[0])
	fmt.Println()
	fmt.Println("behavioral saturates the DSPs at N=512 and resorts to LUTs;")
	fmt.Println("the vectorized structural program would fit N=1440 (360 x 4 lanes).")
}
