package switchsim

import "testing"

// parityProgram prunes entries whose first value is odd; it counts its
// Process calls.
type parityProgram struct{ scalarCalls int }

func (p *parityProgram) Profile() Profile { return Profile{Name: "parity", Stages: 1} }
func (p *parityProgram) Reset()           {}
func (p *parityProgram) Process(vals []uint64) Decision {
	p.scalarCalls++
	if vals[0]%2 == 1 {
		return Prune
	}
	return Forward
}

// summingEmitter absorbs entries whose first value is a multiple of 6 and
// forwards every other one rewritten to (running total, entry's second
// value · 10): a packet that leaves carrying other values than it arrived
// with. Its Process must never run under ProcessBatchOf.
type summingEmitter struct {
	parityProgram
	total uint64
	out   []uint64
}

func (e *summingEmitter) ProcessEmit(vals []uint64) (Decision, []uint64) {
	e.total += vals[0]
	if vals[0]%6 == 0 {
		return Prune, nil
	}
	e.out = append(e.out[:0], e.total, vals[1]*10)
	return Forward, e.out
}

func testBatch(n int) (*Batch, []Decision) {
	col := make([]uint64, n)
	ids := make([]uint64, n)
	for i := range col {
		col[i] = uint64(i * 3)
		ids[i] = uint64(i)
	}
	return &Batch{Cols: [][]uint64{col, ids}, N: n}, make([]Decision, n)
}

func TestProcessBatchOfScalarFallback(t *testing.T) {
	b, dec := testBatch(100)
	p := &parityProgram{}
	ProcessBatchOf(p, b, dec)
	if p.scalarCalls != 100 {
		t.Fatalf("scalar fallback made %d Process calls, want 100", p.scalarCalls)
	}
	for j := 0; j < b.N; j++ {
		want := Forward
		if b.Cols[0][j]%2 == 1 {
			want = Prune
		}
		if dec[j] != want {
			t.Fatalf("entry %d: got %v, want %v", j, dec[j], want)
		}
	}
}

// TestProcessBatchOfEmitter: the chunk driver hands an Emitter's entries
// to ProcessEmit in order, keeps its verdicts, and writes each forwarded
// entry's rewritten values back into the batch columns, leaving pruned
// slots as they arrived.
func TestProcessBatchOfEmitter(t *testing.T) {
	b, dec := testBatch(64)
	e := &summingEmitter{}
	ProcessBatchOf(e, b, dec)
	if e.scalarCalls != 0 {
		t.Fatalf("emitter took %d Process calls, want ProcessEmit only", e.scalarCalls)
	}
	total := uint64(0)
	for j := 0; j < b.N; j++ {
		v := uint64(j * 3)
		total += v
		want, cells := Forward, [2]uint64{total, uint64(j) * 10}
		if v%6 == 0 {
			want, cells = Prune, [2]uint64{v, uint64(j)}
		}
		if dec[j] != want || b.Cols[0][j] != cells[0] || b.Cols[1][j] != cells[1] {
			t.Fatalf("entry %d: got %v (%d, %d), want %v %v", j, dec[j], b.Cols[0][j], b.Cols[1][j], want, cells)
		}
	}
}

func TestPipelineProcessBatchUnknownFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	b, dec := testBatch(8)
	for i := range dec {
		dec[i] = Prune // must be overwritten
	}
	pl.ProcessBatch(99, b, dec)
	for j, d := range dec {
		if d != Forward {
			t.Fatalf("unknown flow entry %d: got %v, want forward", j, d)
		}
	}
}

func TestPipelineProcessBatchInstalledFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	p := &parityProgram{}
	if err := pl.Install(7, p); err != nil {
		t.Fatal(err)
	}
	b, dec := testBatch(16)
	pl.ProcessBatch(7, b, dec)
	if p.scalarCalls != 16 {
		t.Fatalf("installed flow processed %d entries, want 16", p.scalarCalls)
	}
}
