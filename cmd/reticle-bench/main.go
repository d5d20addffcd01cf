// Command reticle-bench regenerates the paper's evaluation figures (§7):
// Figure 4 (DSP/LUT utilization of behavioral vs hand-optimized structural
// code) and Figure 13 (compile speedup, run-time speedup, and utilization
// for tensoradd, tensordot, and fsm under base/hint/reticle), as the
// Markdown sections EXPERIMENTS.md embeds between its generated markers.
//
// Usage:
//
//	reticle-bench [-fig 4|13|all] [-bench tensoradd|tensordot|fsm] [-shrink]
//
// Every panel runs the full baseline annealing schedule five times;
// compile-time cells are the median with the range, the rest repeats to
// the digit (`go test -run TestExperimentsTablesCurrent -update .`
// pastes the output into EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"reticle/internal/eval"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 4, 13, or all")
	benchName := flag.String("bench", "", "restrict figure 13 to one benchmark")
	shrink := flag.Bool("shrink", false, "enable Reticle's shrinking passes")
	flag.Parse()

	secs, err := eval.Sections(*fig, *benchName, eval.Config{Shrink: *shrink}, eval.Runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reticle-bench:", err)
		os.Exit(1)
	}
	for _, s := range secs {
		fmt.Println(s)
	}
}
