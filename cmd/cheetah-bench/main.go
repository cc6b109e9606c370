// Command cheetah-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cheetah-bench [-scale N] [-seeds K] [-seed S] [table2|table3|fig5|fig6|fig7|fig8|fig9|fig10|fig11|all]
//
// Scale divides the paper's dataset sizes (scale=1 reproduces paper
// scale and takes minutes; the default 50 finishes in seconds). Output
// is aligned text, one block per table/figure.
//
// With -cpuprofile or -memprofile, the whole run is profiled with
// runtime/pprof and the profile written on exit — point `go tool pprof`
// at the output to see where a target spends its time or memory.
//
// The system beyond the paper is measured elsewhere: the repo benchmark
// (`bash benchmark/run.sh`) gates in-process, sharded, remote and
// streaming workloads, and the race-detector tests soak the serving,
// streaming and daemon paths.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"cheetah/internal/bench"
)

func main() { os.Exit(run()) }

// run holds main's whole body so the profile-writing defers fire before
// the process exits with the target's status code.
func run() int {
	scale := flag.Int("scale", 50, "divide paper dataset sizes by this factor (1 = paper scale)")
	seeds := flag.Int("seeds", 5, "runs per randomized algorithm (95% CIs)")
	seed := flag.Uint64("seed", 0xc0ffee, "base RNG seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at run end to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	o := bench.Options{Scale: *scale, Seeds: *seeds, BaseSeed: *seed}
	selected := flag.Args()
	if len(selected) == 0 {
		selected = []string{"all"}
	}
	targets := map[string]func() error{
		"table2": func() error { return bench.Table2(os.Stdout) },
		"table3": func() error { return bench.Table3(os.Stdout) },
		"fig5":   func() error { _, err := bench.Fig5(os.Stdout, o); return err },
		"fig6":   func() error { _, _, err := bench.Fig6(os.Stdout, o); return err },
		"fig7":   func() error { _, err := bench.Fig7(os.Stdout, o); return err },
		"fig8":   func() error { _, err := bench.Fig8(os.Stdout, o); return err },
		"fig9":   func() error { _, err := bench.Fig9(os.Stdout, o); return err },
		"fig10":  func() error { _, err := bench.Fig10(os.Stdout, o); return err },
		"fig11":  func() error { _, err := bench.Fig11(os.Stdout, o); return err },
	}
	order := []string{"table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	for _, t := range selected {
		if t == "all" {
			for _, name := range order {
				fmt.Printf("\n===== %s =====\n", name)
				if err := targets[name](); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
					return 1
				}
			}
			continue
		}
		f, ok := targets[t]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown target %q (want one of %v or all)\n", t, order)
			return 2
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t, err)
			return 1
		}
	}
	return 0
}
