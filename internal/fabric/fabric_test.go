package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
	"cheetah/internal/table"
)

// stubProg is a minimal program with a configurable footprint.
type stubProg struct{ prof switchsim.Profile }

func (p stubProg) Profile() switchsim.Profile          { return p.prof }
func (p stubProg) Process([]uint64) switchsim.Decision { return switchsim.Forward }
func (p stubProg) Reset()                              {}

// tinyModel is a switch with 3 usable stages (3 reserved), no
// recirculation — small enough that one 3-stage program fills it.
func tinyModel() switchsim.Model {
	return switchsim.Model{
		Name:             "tiny",
		Stages:           6,
		ALUsPerStage:     4,
		SRAMPerStageBits: 1 << 20,
		TCAMEntries:      1000,
		MetadataBits:     512,
		Recirculation:    1,
	}
}

// prog returns a stub consuming `stages` full stages' worth of ALUs.
func prog(stages int) stubProg {
	return stubProg{prof: switchsim.Profile{Name: "stub", Stages: stages, ALUs: 4 * stages}}
}

func TestAdmitSpreadsLeastLoaded(t *testing.T) {
	f, err := New(Options{Switches: 3, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[int]int{}
	var leases []*Lease
	for i := 0; i < 3; i++ {
		p, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
		if err != nil {
			t.Fatal(err)
		}
		seen[p.Switch]++
		leases = append(leases, p)
	}
	// With equal load the tie breaks by index, so three admissions land
	// on three distinct switches.
	for i := 0; i < 3; i++ {
		if seen[i] != 1 {
			t.Fatalf("placement skew: %v", seen)
		}
	}
	for _, p := range leases {
		p.Release()
	}
}

func TestAdmitFallsBackToLeastContendedQueue(t *testing.T) {
	f, err := New(Options{Switches: 2, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Fill both switches completely.
	a, err := one(f.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := one(f.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Switch == b.Switch {
		t.Fatalf("both full-switch programs on switch %d", a.Switch)
	}
	// Next admission must queue; releasing a switch should grant it.
	done := make(chan *Lease, 1)
	go func() {
		p, err := one(f.Admit(context.Background(), Request{Prog: prog(3), Wait: true, Standing: true}))
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- p
	}()
	// Wait until it is queued somewhere, then release that switch.
	var queuedAt int
	for {
		stats := f.Stats()
		queuedAt = -1
		for i, st := range stats {
			if st.Queued > 0 {
				queuedAt = i
			}
		}
		if queuedAt >= 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if queuedAt == a.Switch {
		a.Release()
	} else {
		b.Release()
	}
	p := <-done
	if p == nil {
		t.Fatal("queued admission failed")
	}
	if p.Switch != queuedAt {
		t.Fatalf("granted on switch %d, queued on %d", p.Switch, queuedAt)
	}
	p.Release()
	if queuedAt == a.Switch {
		b.Release()
	} else {
		a.Release()
	}
}

func TestAdmitNeverFitsAndClosed(t *testing.T) {
	f, err := New(Options{Switches: 2, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one(f.Admit(context.Background(), Request{Prog: prog(4), Wait: true, Standing: true})); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("oversized program: got %v, want ErrNeverFits", err)
	}
	f.Close()
	f.Close() // idempotent
	if _, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true})); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed fabric: got %v, want ErrClosed", err)
	}
}

func TestAdmitShardsRollbackOnFailure(t *testing.T) {
	f, err := New(Options{Switches: 3, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Program 1 can never fit, so the scatter fails after switch 0's
	// grant — which must be rolled back.
	_, err = f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1), prog(4), prog(1)}, Wait: true, Standing: true})
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("got %v, want ErrNeverFits", err)
	}
	for i, u := range f.Utilization() {
		if u.ALUsUsed != 0 {
			t.Fatalf("switch %d leaked resources after rollback: %v", i, u)
		}
	}
	// More programs than switches errors descriptively.
	if _, err := f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1), prog(1), prog(1), prog(1)}, Wait: true, Standing: true}); err == nil {
		t.Fatal("program/switch count overflow: want error")
	}
	// Fewer shards than switches is fine: round-robin from switch 0.
	narrow, err := f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1)}, Wait: true, Standing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) != 1 || narrow[0].Switch != 0 {
		t.Fatalf("single-shard scatter placed %+v, want switch 0", narrow)
	}
	narrow[0].Release()
	// A full scatter admits one program per switch.
	leases, err := f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1), prog(1), prog(1)}, Wait: true, Standing: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range f.Utilization() {
		if u.ALUsUsed != 4 {
			t.Fatalf("switch %d utilization %v, want 4 ALUs", i, u)
		}
	}
	for _, l := range leases {
		l.Release()
	}
}

// TestAdmitShardsRollbackOnSwitchFailure is the mid-sequence failure
// variant: a shard queued on a switch that then dies — with no
// survivors left — must roll the earlier grants back without leaking
// programs, and releasing a revoked lease must be a harmless no-op.
func TestAdmitShardsRollbackOnSwitchFailure(t *testing.T) {
	f, err := New(Options{Switches: 2, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Fill switch 1, pinned through its own admission, so the scatter's
	// second shard has to queue there.
	blocker, err := f.switches[1].admit(context.Background(), prog(3), QoS{}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1), prog(1)}, Wait: true, Standing: true})
		errc <- err
	}()
	for f.Stats()[1].Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	// Kill switch 0 first (revoking shard 0's already-granted lease),
	// then switch 1: the queued shard fails, no survivors remain, and
	// the scatter must give up and roll back.
	f.Fail(0)
	f.Fail(1)
	if err := <-errc; !errors.Is(err, ErrFailed) {
		t.Fatalf("scatter across a dead fabric: got %v, want ErrFailed", err)
	}
	st := f.Stats()
	if st[0].Active != 0 || st[0].Revoked != 1 {
		t.Fatalf("switch 0 after failure: %+v, want 0 active / 1 revoked", st[0])
	}
	blocker.Release() // revoked: must be a no-op, not a panic
	// Restore both switches: the same scatter must now succeed cleanly.
	if err := f.Restore(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Restore(1); err != nil {
		t.Fatal(err)
	}
	placements, err := f.Admit(context.Background(), Request{Shards: []switchsim.Program{prog(1), prog(1)}, Wait: true, Standing: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range placements {
		p.Release()
	}
	for i, u := range f.Utilization() {
		if u.ALUsUsed != 0 {
			t.Fatalf("switch %d leaked resources after restore cycle: %v", i, u)
		}
	}
}

// TestFabricFailureLifecycle drives Fail/Restore/Add through the
// placement paths: placement routes around dead switches, a fully dead
// fabric fails with the direct-execution cue, and restored or added
// switches rejoin the rotation.
func TestFabricFailureLifecycle(t *testing.T) {
	f, err := New(Options{Switches: 3, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Fail(1)
	if got := f.Healthy(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Healthy() = %v, want [0 2]", got)
	}
	for i := 0; i < 4; i++ {
		p, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
		if err != nil {
			t.Fatal(err)
		}
		if p.Switch == 1 {
			t.Fatal("placed a query on a failed switch")
		}
		p.Release()
	}
	f.Fail(0)
	f.Fail(2)
	if _, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true})); !errors.Is(err, ErrFailed) {
		t.Fatalf("fully dead fabric: got %v, want ErrFailed", err)
	}
	if err := f.Restore(1); err != nil {
		t.Fatal(err)
	}
	p, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Switch != 1 {
		t.Fatalf("placed on switch %d, want the restored switch 1", p.Switch)
	}
	p.Release()
	idx, err := f.Add()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 3 || f.Size() != 4 {
		t.Fatalf("Add() = %d (size %d), want index 3 of 4", idx, f.Size())
	}
	// Occupy the restored switch so the fresh one is least-loaded.
	hold, err := one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	p, err = one(f.Admit(context.Background(), Request{Prog: prog(1), Wait: true, Standing: true}))
	if err != nil {
		t.Fatal(err)
	}
	if p.Switch != idx {
		t.Fatalf("placed on switch %d, want the added switch %d", p.Switch, idx)
	}
	p.Release()
	hold.Release()
	if got := f.Metrics().Total("revoked"); got != 0 {
		t.Fatalf("revoked metric = %d, want 0 (no active leases died)", got)
	}
}

func TestFabricConcurrentChurn(t *testing.T) {
	f, err := New(Options{Switches: 4, Model: tinyModel()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p, err := one(f.Admit(context.Background(), Request{Prog: prog(1 + (g+i)%3), Wait: true, Standing: true}))
				if err != nil {
					t.Errorf("admit: %v", err)
					return
				}
				p.Release()
			}
		}(g)
	}
	wg.Wait()
	admitted := uint64(0)
	for _, st := range f.Stats() {
		admitted += st.Admitted
		if st.Active != 0 || st.Queued != 0 {
			t.Fatalf("leftover load after churn: %+v", st)
		}
	}
	if admitted != goroutines*perG {
		t.Fatalf("admitted %d, want %d", admitted, goroutines*perG)
	}
	for i, u := range f.Utilization() {
		if u.ALUsUsed != 0 {
			t.Fatalf("switch %d leaked resources: %v", i, u)
		}
	}
}

// TestScatterGatherThroughFabricLeases wires the full multi-switch
// dataplane: per-shard programs are admitted into real pipelines via
// one scatter Admit and the engine executes each shard through its lease —
// the result must still be exactly ExecDirect's.
func TestScatterGatherThroughFabricLeases(t *testing.T) {
	tb := table.MustNew(table.Schema{
		{Name: "name", Type: table.String},
		{Name: "score", Type: table.Int64},
	})
	s := uint64(7)
	for i := 0; i < 4000; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		if err := tb.AppendRow(fmt.Sprintf("u%03d", s%300), int64(s%100_000)); err != nil {
			t.Fatal(err)
		}
	}
	queries := map[string]*engine.Query{
		"distinct": {Kind: engine.KindDistinct, Table: tb, DistinctCols: []string{"name"}},
		"topn":     {Kind: engine.KindTopN, Table: tb, OrderCol: "score", N: 40},
		"filter": {
			Kind:       engine.KindFilter,
			Table:      tb,
			Predicates: []engine.FilterPred{{Col: "score", Op: prune.OpGT, Const: 50_000}},
			Formula:    boolexpr.Leaf{V: 0},
		},
	}
	const switches = 4
	f, err := New(Options{Switches: switches})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, q := range queries {
		direct, err := engine.ExecDirect(q)
		if err != nil {
			t.Fatal(err)
		}
		pruners := make([]prune.Pruner, switches)
		progs := make([]switchsim.Program, switches)
		for i := range pruners {
			p, err := engine.DefaultPruner(q, 11)
			if err != nil {
				t.Fatal(err)
			}
			pruners[i] = p
			progs[i] = p
		}
		leases, err := f.Admit(context.Background(), Request{Shards: progs, Wait: true, Standing: true})
		if err != nil {
			t.Fatal(err)
		}
		flows := make([]engine.BatchDataplane, switches)
		for i, l := range leases {
			flows[i] = l
		}
		run, err := engine.ExecSharded(q, engine.ShardedOptions{
			Shards: switches, Workers: 2, Seed: 11, Pruners: pruners, Flows: flows,
		})
		for _, l := range leases {
			l.Release()
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.Result.Equal(direct) {
			t.Fatalf("%s through fabric leases: results diverge\ndirect:\n%s\nsharded:\n%s", name, direct, run.Result)
		}
	}
	for i, u := range f.Utilization() {
		if u.ALUsUsed != 0 || u.SRAMBitsUsed != 0 {
			t.Fatalf("switch %d leaked resources: %v", i, u)
		}
	}
}
