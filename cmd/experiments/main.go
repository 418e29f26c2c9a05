// Command experiments regenerates the tables and figures of the JetStream
// paper's evaluation (§6) on the scaled synthetic workloads.
//
// Usage:
//
//	experiments [-exp all|table1|table2|table3|table4|fig9..fig14|ablations]
//	            [-quick] [-seed N]
//
// Each experiment prints the same rows/series the paper reports; the shapes
// (who wins, by roughly what factor, where the crossovers fall) are the
// reproduction target — absolute numbers live at the harness's ~100x-reduced
// workload scale.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"jetstream/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1..table4, fig9..fig14, ablations)")
	quick := flag.Bool("quick", false, "use reduced datasets (seconds instead of minutes)")
	seed := flag.Int64("seed", 42, "workload seed")
	flag.Parse()

	if err := run(os.Stdout, *exp, *quick, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if errors.Is(err, errUnknown) {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUnknown = errors.New("unknown experiment")

// run prints experiment exp ("all" for every one) to w, each followed by a
// "[name completed in …]" line — the only part of the output that varies
// between runs of one seed.
func run(w io.Writer, exp string, quick bool, seed int64) error {
	r := bench.NewRunner(quick)
	r.Seed = seed

	render := func(run func() (fmt.Stringer, error)) func() (string, error) {
		return func() (string, error) {
			res, err := run()
			if err != nil {
				return "", err
			}
			return res.String(), nil
		}
	}
	experiments := []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) { return r.Table1(), nil }},
		{"table2", r.Table2},
		{"table3", render(func() (fmt.Stringer, error) { return r.Table3() })},
		{"fig9", render(func() (fmt.Stringer, error) { return r.Fig9() })},
		{"fig10", render(func() (fmt.Stringer, error) { return r.Fig10() })},
		{"fig11", render(func() (fmt.Stringer, error) { return r.Fig11() })},
		{"fig12", render(func() (fmt.Stringer, error) { return r.Fig12() })},
		{"fig13", render(func() (fmt.Stringer, error) { return r.Fig13() })},
		{"fig14", render(func() (fmt.Stringer, error) { return r.Fig14() })},
		{"table4", func() (string, error) { return r.Table4(), nil }},
		{"ablations", render(func() (fmt.Stringer, error) { return r.Ablations() })},
	}

	want := strings.ToLower(exp)
	ran := false
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		ran = true
		start := time.Now()
		out, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w, out)
		fmt.Fprintf(w, "[%s completed in %.1fs]\n\n", e.name, time.Since(start).Seconds())
	}
	if !ran {
		return fmt.Errorf("%w %q", errUnknown, exp)
	}
	return nil
}
