package main

// The three commands around a single pass: running every workload and
// pass in child processes into one summary file, comparing two
// summaries, and printing the manifest (BENCHMARK.json).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// summary is what an all-workloads run writes and compare reads. Every
// metric keeps one value per repetition.
type summary struct {
	Env       map[string]any              `json:"env"`
	Workloads map[string]*workloadSummary `json:"workloads"`
	// Claim stays null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
}

type workloadSummary struct {
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	CalibMs   []float64            `json:"calib_ms"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
}

// runAll runs every workload, both passes, runs times, each pass in a
// process of its own (so peak_rss_mb is per workload), echoes what they
// print and writes the summary. It returns the exit code.
func runAll(o options, runs int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	sum := &summary{
		Env: map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(), "go": runtime.Version(),
			"seed": o.seed, "seconds": o.seconds, "scale": o.scale, "runs": runs,
		},
		Workloads: map[string]*workloadSummary{},
	}
	code := 0
	for _, w := range workloads {
		ws := &workloadSummary{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
		sum.Workloads[w.Name] = ws
		for r := 0; r < runs; r++ {
			for trace := 0; trace <= 1; trace++ {
				cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(o.seed),
					"--seconds", fmt.Sprint(o.seconds), "--trace", fmt.Sprint(trace), "--scale", fmt.Sprint(o.scale))
				var buf bytes.Buffer
				cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
				cmd.Stderr = os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.Name, trace, err)
					code = 1
				}
				into := ws.EndToEnd
				if trace == 1 {
					into = ws.PerLayer
				}
				if err := ws.absorb(buf.Bytes(), into); err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s trace=%d: %v\n", w.Name, trace, err)
					code = 1
				}
			}
		}
	}
	data, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("summary written to %s\n", out)
	return code
}

// absorb reads one pass's output: the result line (last) and the
// calibration info lines.
func (ws *workloadSummary) absorb(out []byte, into map[string][]float64) error {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		var name string
		var v float64
		if n, _ := fmt.Sscanf(last, "info %s %g", &name, &v); n == 2 && strings.HasPrefix(name, "calib_") {
			ws.CalibMs = append(ws.CalibMs, v)
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return fmt.Errorf("no result line: %w", err)
	}
	ws.Attempted += rep.Attempted
	ws.Failed += rep.Failed
	for name, m := range rep.Metrics {
		into[name] = append(into[name], m.Value)
	}
	return nil
}

// compareMain prints, per workload × end-to-end metric, both medians,
// the change, the bound and a verdict: ok, worse, or unresolved when
// the runs of either side spread wider than the bound (unless every run
// of b beats every run of a) or the machine calibrated more than 5 %
// apart. It returns 1 when any metric is worse.
func compareMain(out io.Writer, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	var sums [2]summary
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sums[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
			return 2
		}
	}
	code := 0
	fmt.Fprintf(out, "%-14s %-20s %12s %12s %8s %6s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, w := range workloads {
		a, b := sums[0].Workloads[w.Name], sums[1].Workloads[w.Name]
		if a == nil || b == nil {
			fmt.Fprintf(out, "%-14s missing from one side\n", w.Name)
			code = 1
			continue
		}
		drift := 0.0
		if ca, cb := median(a.CalibMs), median(b.CalibMs); ca > 0 && cb > 0 {
			drift = cb/ca - 1
		}
		for _, d := range endToEnd {
			va, vb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
			ma, mb := median(va), median(vb)
			if len(va) == 0 || len(vb) == 0 || ma == 0 {
				fmt.Fprintf(out, "%-14s %-20s missing from one side\n", w.Name, d.Name)
				code = 1
				continue
			}
			change := mb/ma - 1
			worseBy := change
			if d.Better == higher {
				worseBy = -change
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case drift > 0.05 || drift < -0.05:
				verdict = fmt.Sprintf("unresolved (calibration %+.1f%%)", 100*drift)
			case sp > d.Bound && !allBetter(va, vb, d.Better):
				verdict = "unresolved (spread wider than bound)"
			case worseBy > d.Bound:
				verdict = "worse"
				code = 1
			}
			fmt.Fprintf(out, "%-14s %-20s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				w.Name, d.Name, ma, mb, 100*change, 100*d.Bound, 100*sp, verdict)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Fprintf(out, "%-14s failed ops: a %d of %d, b %d of %d\n", w.Name, a.Failed, a.Attempted, b.Failed, b.Attempted)
			code = 1
		}
	}
	return code
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	})
}
