package main

import (
	"context"
	"fmt"
	"io"
)

// runAA runs the end-to-end suite twice on the same build, A then B per
// workload and each in a process of its own, and prints for every metric and
// workload how much worse B read than A beside the metric's bound. Any
// difference past its bound means the benchmark cannot tell a regression of
// that size from noise on this box, and the exit code says so.
func runAA(ctx context.Context, f flags) (int, error) {
	f.trace = 0
	_, buildTime, err := buildDaemon(ctx)
	if err != nil {
		return 1, err
	}
	ws := workloads(1)
	printEnv(buildTime.Seconds(), ws[0])
	code := 0
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "B worse", "bound")
	for _, w := range ws {
		var pair [2]*result
		for i := range pair {
			r, err := runChild(ctx, w.name, f, io.Discard)
			if err != nil {
				return 1, err
			}
			if !r.correct() {
				fmt.Printf("%s: %d of %d operations failed\n", w.name, r.failed, r.attempted)
				code = 1
			}
			pair[i] = r
		}
		for _, d := range endToEnd {
			a, b := pair[0].metrics[d.Name], pair[1].metrics[d.Name]
			worse := relWorse(a, b, d.Better)
			verdict := ""
			if worse > d.Bound || -worse > d.Bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	return code, nil
}
