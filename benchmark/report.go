package main

// The metric contract: every end-to-end and per-layer metric the
// benchmark emits is declared here once, with unit, direction and (for
// end-to-end metrics) the share by which it may worsen. BENCHMARK.json
// is this table printed by `go run ./benchmark manifest`; a test checks
// the file and the table agree, and every pass fails if it did not set
// exactly the declared names.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics of the untraced pass. failed_share is not
// among them: the contract wants metrics that are never 0, and the
// result line's failed/attempted carries it. Of the nine kinds four have
// a gated latency of their own — the two cheap shapes planning and the
// skip index decide (filter_range, topn), the plain scan (filter) and the
// heaviest (join) — and all nine enter kinds_p50_geomean_ms. The other
// five are printed by the untraced pass and are per-layer metrics
// (client.p50_ms.*): HAVING and SKYLINE flip within a run between both
// shard passes running side by side and one after the other, and their
// medians spread by up to 0.29 between ten runs of one commit, wider
// than any bound the contract allows. The bounds are the widest it
// allows: the same commit's medians spread by 0.1 to 0.2 on the shared
// 2-vCPU reference box.
var gatedKinds = []int{opFilter, opFilterRange, opTopN, opJoin}

var endToEnd = func() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", lower, 0.25},
		{"queries_per_s", "1/s", higher, 0.25},
		{"kinds_p50_geomean_ms", "ms", lower, 0.25},
	}
	for _, k := range gatedKinds {
		defs = append(defs, metricDef{kinds[k] + "_p50_ms", "ms", lower, 0.25})
	}
	return append(defs,
		metricDef{"fresh_p50_ms", "ms", lower, 0.25},
		metricDef{"ingest_rows_per_s", "rows/s", higher, 0.25},
		metricDef{"peak_rss_mb", "MB", lower, 0.15},
	)
}()

// perLayer are the metrics of the traced pass, grouped by the layer
// (package) they account for.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "wire.spec_encode_us", Unit: "us", Better: lower},
		{Name: "wire.spec_decode_bind_us", Unit: "us", Better: lower},
		{Name: "wire.result_encode_us_per_krow", Unit: "us", Better: lower},
		{Name: "wire.result_decode_us_per_krow", Unit: "us", Better: lower},
		{Name: "wire.append_codec_us", Unit: "us", Better: lower},
		{Name: "wire.update_bytes_per_batch", Unit: "bytes", Better: lower},
		{Name: "netserve.ping_p50_us", Unit: "us", Better: lower},
		{Name: "netserve.overhead_p50_us", Unit: "us", Better: lower},
		{Name: "netserve.dial_p50_us", Unit: "us", Better: lower},
		{Name: "serve.admit_p50_us", Unit: "us", Better: lower},
		{Name: "serve.queued_share", Unit: "ratio", Better: lower},
		{Name: "serve.fallback_share", Unit: "ratio", Better: lower},
		{Name: "plan.open_ms", Unit: "ms", Better: lower},
		{Name: "table.skip_build_ms", Unit: "ms", Better: lower},
		{Name: "table.skip_refresh_us_per_batch", Unit: "us", Better: lower},
		{Name: "table.append_rows_per_s", Unit: "rows/s", Better: higher},
		{Name: "table.blocks_skipped_share.filter_range", Unit: "ratio", Better: higher},
		{Name: "table.blocks_skipped_share.topn", Unit: "ratio", Better: higher},
		{Name: "table.blocks_skipped_share.join", Unit: "ratio", Better: higher},
		{Name: "stream.append_ack_p50_us", Unit: "us", Better: lower},
		{Name: "stream.inproc_fresh_p50_ms", Unit: "ms", Better: lower},
		{Name: "stream.updates_per_batch", Unit: "ratio", Better: higher},
		{Name: "obs.overhead_share", Unit: "ratio", Better: lower},
		{Name: "obs.untiled_share", Unit: "ratio", Better: lower},
		{Name: "client.hi_pct", Unit: "%", Better: higher},
		{Name: "client.samples_per_kind", Unit: "count", Better: higher},
		{Name: "harness.calib_ms", Unit: "ms", Better: lower},
		{Name: "harness.block_spread", Unit: "ratio", Better: lower},
		{Name: "harness.gc_pause_ms", Unit: "ms", Better: lower},
	}
	for _, s := range subKinds {
		defs = append(defs, metricDef{Name: "stream.fresh_p50_ms." + kinds[s], Unit: "ms", Better: lower})
	}
	for _, k := range kinds {
		defs = append(defs,
			metricDef{Name: "plan.plan_us." + k, Unit: "us", Better: lower},
			metricDef{Name: "engine.pass_ms." + k, Unit: "ms", Better: lower},
			metricDef{Name: "engine.merge_ms." + k, Unit: "ms", Better: lower},
			metricDef{Name: "engine.direct_ratio." + k, Unit: "ratio", Better: lower},
			metricDef{Name: "engine.forwarded_share." + k, Unit: "ratio", Better: lower},
			metricDef{Name: "engine.alloc_kb." + k, Unit: "KB", Better: lower},
			metricDef{Name: "engine.fused_over_batch." + k, Unit: "ratio", Better: lower},
			metricDef{Name: "client.hi_ms." + k, Unit: "ms", Better: lower},
			metricDef{Name: "client.p50_ms." + k, Unit: "ms", Better: lower},
		)
	}
	sort.SliceStable(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
	return defs
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one pass's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs   []metricDef
	infos  []infoLine
	lines  []string // free-form rows (layers table) printed before the metrics
	errors []error
	head   string
}

type infoLine struct {
	name  string
	value float64
	unit  string
}

func newReport(w workload, o options) *report {
	r := &report{Metrics: map[string]metricValue{}, defs: endToEnd}
	pass := "untraced"
	if o.trace {
		r.defs, pass = perLayer, "traced"
	}
	r.head = fmt.Sprintf("workload %s, %s pass, seed %d, %gs, scale 1/%d", w.Name, pass, o.seed, o.seconds, o.scale)
	return r
}

func (r *report) count(attempted, failed int, errs ...error) {
	r.Attempted += attempted
	r.Failed += failed
	for _, err := range errs {
		if err != nil {
			r.errors = append(r.errors, err)
		}
	}
}

// set records a declared metric; an undeclared name is a harness bug.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared for this pass")
}

// info records a figure that is printed but is not part of the result
// line (calibration, spreads, sample counts).
func (r *report) info(name string, v float64, unit string) {
	r.infos = append(r.infos, infoLine{name, v, unit})
}

func (r *report) row(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// finish checks that exactly the declared metrics were set and fixes
// Correct.
func (r *report) finish() error {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("benchmark: metric %s was not measured", d.Name)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("benchmark: nothing was attempted")
	}
	r.Correct = r.Failed == 0
	return nil
}

// print writes every figure by name and unit, then the result line as
// the last line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "# %s\n", r.head)
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, i := range r.infos {
		fmt.Fprintf(w, "info %-39s %14.6g %s\n", i.name, i.value, i.unit)
	}
	share := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(w, "%-44s %14.6g ratio (%d of %d)\n", "failed_share", share, r.Failed, r.Attempted)
	for _, err := range r.errors {
		fmt.Fprintf(w, "FAILED: %v\n", err)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
