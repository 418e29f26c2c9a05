// Command benchmark is the repository's one benchmark: it builds
// cmd/jetstreamd, drives four fixed workloads — three against the real daemon
// as a child process over loopback HTTP, one against the library with the
// cycle model on — checks every output against a sequential reference, and
// prints the end-to-end metrics by name. With -trace 1 it instead replays each
// workload in-process through one twin per layer and prints where the time
// goes. See README.md in this directory.
//
// The harness is a module of its own (jetstream/benchmark, replacing
// jetstream with ../) so the repository's `go build ./... && go test ./...`
// neither compiles nor runs it. From the repository root:
//
//	go run -C benchmark . -seed 1             all four workloads, end to end
//	go run -C benchmark . -seed 1 -trace 1    all four, layer by layer
//	go run -C benchmark . -aa                 the suite twice, differences vs bounds
//	go run -C benchmark . -workload small-batch -seed 3 -seconds 18 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json: how long one run measures
// at the seed commit's speed, split evenly over the lives and, within a life,
// between the closed phase and the paced phase.
const defaultSeconds = 18

// flags are the command line.
type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	smoke    bool
	corrupt  bool
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run only this workload, in this process, and end with the result as one JSON line (default: all four, each in a process of its own)")
	flag.Int64Var(&f.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&f.seconds, "seconds", defaultSeconds, "how long one run measures at the seed commit's speed")
	flag.IntVar(&f.trace, "trace", 0, "1 = the traced run (per-layer metrics), 0 = the end-to-end run")
	flag.BoolVar(&f.aa, "aa", false, "run the end-to-end suite twice on the same build and compare against the bounds")
	flag.BoolVar(&f.smoke, "smoke", false, "tiny graphs and phases: a functional pass, not a measurement")
	flag.BoolVar(&f.corrupt, "corrupt-reference", false, "flip one reference value, to show the correctness gate trips")
	flag.Parse()
	if flag.NArg() > 0 || f.seconds <= 0 || (f.trace != 0 && f.trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: go run -C benchmark . [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-aa] [-smoke] [-corrupt-reference]")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	run := runSuite
	if f.workload != "" {
		run = runOne
	}
	code, err := run(ctx, f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		code = 1
	}
	stop()
	os.Exit(code)
}

// runOne runs one workload in this process — what the driver invokes — and
// ends with the result as one JSON line.
func runOne(ctx context.Context, f flags) (int, error) {
	div := 1
	opt := runOptions{seed: f.seed, seconds: f.seconds, lives: 3, probeTime: 200 * time.Millisecond, simBatches: 100, traceBatches: 500, corruptRef: f.corrupt}
	if f.smoke {
		div = 40
		opt.seconds = min(f.seconds, 1)
		opt.lives, opt.probeTime, opt.simBatches, opt.traceBatches = 2, 20*time.Millisecond, 10, 20
	}
	w, err := workloadByName(f.workload, div)
	if err != nil {
		return 2, err
	}
	bin, buildTime, err := buildDaemon(ctx)
	if err != nil {
		return 1, err
	}
	opt.daemonBin = bin
	printEnv(buildTime.Seconds(), w)

	defs := endToEnd
	var r *result
	if f.trace == 1 {
		defs = perLayer
		r, err = runTraced(ctx, w, opt)
	} else {
		r, err = runWorkload(ctx, w, opt)
	}
	if err != nil {
		return 1, fmt.Errorf("%s: %w", w.name, err)
	}
	r.printMetrics(os.Stdout, defs)
	line, err := r.jsonLine(defs)
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	if !r.correct() {
		return 1, nil
	}
	return 0, nil
}

// runSuite runs every workload, each in a child process of its own, exactly
// as the driver does: the library workload's speed depends on how large this
// process's heap has already grown, so a workload run second in one process
// is not the workload the driver measures. It ends with the table of all
// four, or in A/A mode runs each twice and compares the two.
func runSuite(ctx context.Context, f flags) (int, error) {
	if f.aa {
		return runAA(ctx, f)
	}
	defs := endToEnd
	if f.trace == 1 {
		defs = perLayer
	}
	code := 0
	var results []*result
	for _, w := range workloads(1) {
		r, err := runChild(ctx, w.name, f, os.Stdout)
		if err != nil {
			return 1, err
		}
		if !r.correct() {
			code = 1
		}
		results = append(results, r)
	}
	fmt.Println()
	printTable(os.Stdout, defs, results)
	return code, nil
}

// runChild runs one workload in a child process with f's settings, copies
// what it prints to out, and parses the result line it ends with.
func runChild(ctx context.Context, name string, f flags, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(f.seed), "-seconds", fmt.Sprint(f.seconds), "-trace", fmt.Sprint(f.trace)}
	if f.smoke {
		args = append(args, "-smoke")
	}
	if f.corrupt {
		args = append(args, "-corrupt-reference")
	}
	var buf bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.MultiWriter(&buf, out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	r, err := parseResultLine(name, lines[len(lines)-1])
	if err != nil {
		// No result line: the child's own failure is the better message.
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	return r, nil
}

// printEnv writes the environment header every output starts with: without
// it a number cannot be compared with another.
func printEnv(buildSeconds float64, w workload) {
	env := map[string]any{
		"commit":      commit(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"data_dir_fs": fsType(outDir) + " (wal.* and fsync figures are this machine's disk)",
		"connections": w.conns,
		"build_s":     buildSeconds,
	}
	blob, _ := json.Marshal(env)
	fmt.Printf("env %s\n", blob)
}

// commit names the checkout: the git commit when there is one (the driver's
// checkout is not a repository).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
