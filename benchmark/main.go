// Command benchmark is the repo's benchmark: four closed-loop workloads
// against the public functions of plan, engine, netserve, wire, table
// and stream, every answer checked against engine.ExecDirect. See
// README.md in this directory for the metric definitions.
//
//	go run ./benchmark --workload local_scan --seed 1 --seconds 26 --trace 0
//	go run ./benchmark --runs 3 --out a.json      # all workloads, both passes
//	go run ./benchmark compare a.json b.json
//	go run ./benchmark manifest                   # prints BENCHMARK.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Stdout, os.Args[2:]))
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run; empty runs all four, both passes, each in its own process")
	seed := fs.Uint64("seed", 1, "drives table generation and op variants")
	seconds := fs.Float64("seconds", refSeconds, "how long one pass measures")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	scale := fs.Int("scale", 1, "divide table sizes and ingest batch counts (smoke runs)")
	runs := fs.Int("runs", 1, "all-workloads mode: repetitions of every workload and pass")
	out := fs.String("out", "benchmark/out/summary.json", "all-workloads mode: where the summary goes")
	if err := fs.Parse(os.Args[1:]); err != nil {
		fatal(err)
	}
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, setups: 3, outDir: "benchmark/out"}
	if *name == "" {
		os.Exit(runAll(o, *runs, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	rep, err := run(context.Background(), w, o)
	if err != nil {
		fatal(err)
	}
	if err := rep.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
