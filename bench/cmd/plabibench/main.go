// Command plabibench is plabi's benchmark harness: it drives the product
// through the workloads BENCHMARK.json declares and prints every metric
// by name and unit. See bench/README.md.
//
//	plabibench -workload W -seed N -seconds S -trace 0|1   one run; the last stdout line is its result
//	plabibench [-runs R] [-trace 1]                        every workload, a process each; writes bench/out/result.json
//	plabibench -compare old.json new.json                  applies the regression bounds; exits 1 on a regression
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"plabi/bench"
)

func main() {
	var opts bench.Options
	flag.StringVar(&opts.Workload, "workload", "", "workload to run (empty: every declared workload, each in a fresh process)")
	flag.Int64Var(&opts.Seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&opts.Seconds, "seconds", 0, "run length the fixed schedules are sized for (0: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced replay and reports per-layer metrics")
	flag.BoolVar(&opts.Smoke, "smoke", false, "cut data and schedules to about a second")
	flag.BoolVar(&opts.SetupOnly, "setup-only", false, "stop after set-up and print its duration in seconds (how a run samples setup_s)")
	outcome := flag.String("outcome", "", "also write the run's full outcome (detail metrics, sample counts) to this file")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, seeds seed..seed+runs-1")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	opts.Trace = *trace != 0
	opts.SetupSamples = 3
	opts.Log = os.Stderr

	m, err := bench.FindManifest()
	if err != nil {
		fatal(2, err)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("usage: plabibench -compare old.json new.json"))
		}
		old, err := bench.ReadResult(flag.Arg(0))
		if err != nil {
			fatal(2, err)
		}
		cur, err := bench.ReadResult(flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if bench.PrintRows(os.Stdout, bench.Compare(m, old, cur)) {
			os.Exit(1)
		}
	case opts.Workload == "":
		res, err := bench.RunAll(m, opts, *runs, os.Stderr)
		if err != nil {
			fatal(1, err)
		}
		path := filepath.Join(m.OutDir(), "result.json")
		if err := res.WriteFile(path); err != nil {
			fatal(1, err)
		}
		res.Print(m, os.Stdout)
		fmt.Println("wrote", path)
	default:
		out, err := bench.Run(m, opts)
		if err != nil {
			fatal(1, err)
		}
		if opts.SetupOnly {
			fmt.Println(out.EndToEnd["setup_s"].Value)
			return
		}
		if *outcome != "" {
			if err := bench.WriteOutcome(*outcome, out); err != nil {
				fatal(1, err)
			}
		}
		line, err := out.ResultLine()
		if err != nil {
			fatal(1, err)
		}
		fmt.Println(string(line))
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "plabibench:", err)
	os.Exit(code)
}
