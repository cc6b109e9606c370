package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cheetah/internal/obs"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

func hashTable(h interface{ Write([]byte) (int, error) }, t *table.Table) {
	var num [8]byte
	for r := 0; r < t.NumRows(); r++ {
		for c := 0; c < t.NumCols(); c++ {
			if t.ColumnType(c) == table.String {
				h.Write([]byte(t.StringAt(c, r)))
				h.Write([]byte{0})
				continue
			}
			v := uint64(t.Int64At(c, r))
			for i := range num {
				num[i] = byte(v >> (8 * i))
			}
			h.Write(num[:])
		}
	}
}

// TestInputsPinned pins the benchmark's inputs for -seed 1 at
// remote_small's sizes: the tables, the first append batches and the 36
// encoded specs. A change here moves every number the benchmark reports;
// it must be its own change, with the baseline measured again.
func TestInputsPinned(t *testing.T) {
	visits, rankings := genVisits(8192, 1), genRankings(4096, 1)
	h := fnv.New64a()
	hashTable(h, visits)
	hashTable(h, rankings)
	gen := newBatchGen(8192, 1)
	for i := 0; i < 4; i++ {
		hashTable(h, gen.next())
	}
	specs, err := specsOf(genOps(visits, rankings, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		req := wire.QueryReq{ID: uint64(i), Spec: specs[i]}
		h.Write(req.EncodeBody(nil))
	}
	const want = uint64(0x99b87848c723f5ed)
	if got := h.Sum64(); got != want {
		t.Fatalf("input checksum %#x, pinned %#x: the benchmark's inputs drifted", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readManifest(t *testing.T) (manifest, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m, data
}

// TestManifest checks BENCHMARK.json against the tables it is printed
// from and against the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	m, data := readManifest(t)
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Error("BENCHMARK.json is not what `go run ./benchmark manifest` prints; regenerate it")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16/128", len(m.EndToEnd), len(m.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range append(m.EndToEnd, m.PerLayer...) {
		if d.Unit == "" || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
}

// TestSmoke runs all four workloads, both passes, at a tiny scale and
// checks that every answer was right, that each pass emitted exactly the
// names BENCHMARK.json declares for it, and that the trace files parse
// with every span's parent present.
func TestSmoke(t *testing.T) {
	m, _ := readManifest(t)
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, seconds: 0.2, trace: trace, scale: 128, setups: 1, outDir: dir}
			rep, err := run(context.Background(), w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, rep.Failed, rep.Attempted, rep.errors)
			}
			declared := m.EndToEnd
			if trace {
				declared = m.PerLayer
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(rep.Metrics), len(declared))
			}
			for _, d := range declared {
				if got, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("%s trace=%v: %s declared but not emitted", w.Name, trace, d.Name)
				} else if got.Unit != d.Unit {
					t.Errorf("%s: unit %q, declared %q", d.Name, got.Unit, d.Unit)
				}
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last) != 4 {
				t.Errorf("%s trace=%v: last line is not the four-key result object: %v", w.Name, trace, err)
			}
		}
		checkTraceFile(t, filepath.Join(dir, "trace-"+w.Name+".jsonl"))
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ids := map[uint64]uint64{} // span → trace
	var spans []span
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.Layer == "" || s.Name == "" || s.EndNs < s.StartNs {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		ids[s.SpanID] = s.TraceID
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if tr, ok := ids[s.Parent]; !ok || tr != s.TraceID {
			t.Errorf("%s: span %d (%s) has no parent %d in trace %d", path, s.SpanID, s.Name, s.Parent, s.TraceID)
		}
	}
}

func TestBlockStatistics(t *testing.T) {
	if got := blocks([]float64{1, 2, 3, 4, 5, 6, 7}, numBlocks); len(got) != numBlocks || len(got[4]) != 2 {
		t.Errorf("blocks = %v, want %d blocks covering every sample", got, numBlocks)
	}
	for n, want := range map[int]float64{5: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 20000: 99.9} {
		if got := hiPercentile(n); got != want {
			t.Errorf("hiPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	if got := spread([]float64{9, 10, 11}); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestUntiled(t *testing.T) {
	ms := time.Millisecond
	tiled := []obs.Span{{Start: 0, Dur: 2 * ms}, {Start: 2 * ms, Dur: 8 * ms}, {Start: 3 * ms, Dur: ms}}
	if got := untiled(tiled, 10*ms); got != 0 {
		t.Errorf("tiling spans with one nested: untiled = %v, want 0", got)
	}
	parallel := []obs.Span{{Start: 0, Dur: 6 * ms}, {Start: 1 * ms, Dur: 6 * ms}, {Start: 7 * ms, Dur: 3 * ms}}
	if got := untiled(parallel, 10*ms); got != 0.5 {
		t.Errorf("overlapping shard spans: untiled = %v, want 0.5", got)
	}
}

func writeSummary(t *testing.T, path string, latency, calib float64) {
	t.Helper()
	s := summary{Workloads: map[string]*workloadSummary{}}
	for _, w := range workloads {
		ws := &workloadSummary{EndToEnd: map[string][]float64{}, CalibMs: []float64{calib}, Attempted: 1}
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = []float64{10, 10.1, 10.2}
		}
		ws.EndToEnd["join_p50_ms"] = []float64{latency, latency * 1.01, latency * 1.02}
		s.Workloads[w.Name] = ws
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, same, slow, drifted := filepath.Join(dir, "a"), filepath.Join(dir, "same"), filepath.Join(dir, "slow"), filepath.Join(dir, "drifted")
	writeSummary(t, a, 100, 30)
	writeSummary(t, same, 104, 30)
	writeSummary(t, slow, 140, 30)
	writeSummary(t, drifted, 140, 40)
	if code := compareMain(io.Discard, []string{a, same}); code != 0 {
		t.Errorf("a change inside the bound: exit %d, want 0", code)
	}
	if code := compareMain(io.Discard, []string{a, slow}); code != 1 {
		t.Errorf("join 40%% slower: exit %d, want 1", code)
	}
	if code := compareMain(io.Discard, []string{a, drifted}); code != 0 {
		t.Errorf("slower on a machine that calibrated 33%% slower is unresolved, not worse: exit %d, want 0", code)
	}
}
