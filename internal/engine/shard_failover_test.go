package engine

import (
	"errors"
	"sync"
	"testing"

	"cheetah/internal/prune"
	"cheetah/internal/switchsim"
)

var errSwitchDead = errors.New("test: switch dead")

// pipeDP adapts one real pipeline flow to HealthDataplane, the shape
// fabric.Lease has in production.
type pipeDP struct {
	pl     *switchsim.Pipeline
	flowID uint32
}

func (d pipeDP) ProcessBatch(b *switchsim.Batch, decisions []switchsim.Decision) {
	d.pl.ProcessBatch(d.flowID, b, decisions)
}

func (d pipeDP) Err() error {
	if d.pl.Failed() {
		return errSwitchDead
	}
	return nil
}

// failoverHarness builds per-shard programs on real pipelines, arms a
// fault injector on the chosen victims, and supplies a Failover hook
// that re-places a dead shard on a fresh pipeline.
type failoverHarness struct {
	t        *testing.T
	q        *Query
	shards   int
	seed     uint64
	pruners  []prune.Pruner
	flows    []BatchDataplane
	mu       sync.Mutex
	replaced int
}

func newFailoverHarness(t *testing.T, q *Query, shards int, seed uint64, victim map[int]switchsim.FaultInjector) *failoverHarness {
	t.Helper()
	h := &failoverHarness{t: t, q: q, shards: shards, seed: seed}
	for s := 0; s < shards; s++ {
		p, dp := h.place(victim[s])
		h.pruners = append(h.pruners, p)
		h.flows = append(h.flows, dp)
	}
	return h
}

// place builds one fresh program on one fresh pipeline (optionally
// armed with an injector) and returns both.
func (h *failoverHarness) place(inj switchsim.FaultInjector) (prune.Pruner, BatchDataplane) {
	h.t.Helper()
	p, err := defaultShardPruner(h.q, h.shards, h.seed)
	if err != nil {
		h.t.Fatal(err)
	}
	pl, err := switchsim.NewPipeline(switchsim.Tofino())
	if err != nil {
		h.t.Fatal(err)
	}
	if err := pl.Install(1, p); err != nil {
		h.t.Fatal(err)
	}
	if inj != nil {
		pl.SetFaultInjector(inj)
	}
	return p, pipeDP{pl: pl, flowID: 1}
}

func (h *failoverHarness) failover(shard, attempt int) (prune.Pruner, BatchDataplane, error) {
	h.mu.Lock()
	h.replaced++
	h.mu.Unlock()
	p, dp := h.place(nil)
	return p, dp, nil
}

// TestShardedFailoverMatchesDirect kills one shard's switch mid-stream
// for every query kind: the failover path must redo the shard on a
// replacement switch and still reproduce ExecDirect bit-identically.
func TestShardedFailoverMatchesDirect(t *testing.T) {
	// Force multi-chunk shard streams so "between two batches" exists
	// for every kind at this table size.
	defer func(n int) { chunkEntries = n }(chunkEntries)
	chunkEntries = 256
	tb := equivTable(t, 3000, 0x5eed)
	rt := equivTable(t, 900, 0x0dd)
	const shards = 3
	for name, q := range equivQueries(tb, rt) {
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		// Shard 1's switch dies between its 1st and 2nd batch (streams
		// are one chunk per worker here, so later ordinals never fire).
		h := newFailoverHarness(t, q, shards, 0xfeed, map[int]switchsim.FaultInjector{
			1: func(flow uint32, batch int) bool { return batch >= 1 },
		})
		run, err := ExecSharded(q, ShardedOptions{
			Shards: shards, Workers: 2, Seed: 0xfeed,
			Pruners: h.pruners, Flows: h.flows, Failover: h.failover,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.Result.Equal(direct) {
			t.Fatalf("%s with mid-stream switch death: results diverge\ndirect:\n%s\nsharded:\n%s", name, direct, run.Result)
		}
		if run.FailedOver < 1 {
			t.Fatalf("%s: FailedOver = %d, want ≥ 1 (the victim shard was redone)", name, run.FailedOver)
		}
		if run.Degraded != 0 {
			t.Fatalf("%s: Degraded = %d, want 0 (replacement switch was healthy)", name, run.Degraded)
		}
	}
}

// TestShardedDegradesWithoutFailover kills every switch immediately
// with no Failover hook: each shard must fall back to master-side
// execution of its (reset) program — the §7.2 backstop — and results
// must stay exact.
func TestShardedDegradesWithoutFailover(t *testing.T) {
	tb := equivTable(t, 2000, 0x111)
	rt := equivTable(t, 600, 0x222)
	const shards = 2
	dieNow := func(flow uint32, batch int) bool { return true }
	for name, q := range equivQueries(tb, rt) {
		direct, err := ExecDirect(q)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		h := newFailoverHarness(t, q, shards, 7, map[int]switchsim.FaultInjector{0: dieNow, 1: dieNow})
		run, err := ExecSharded(q, ShardedOptions{
			Shards: shards, Workers: 2, Seed: 7,
			Pruners: h.pruners, Flows: h.flows,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !run.Result.Equal(direct) {
			t.Fatalf("%s on a fully dead fabric: results diverge\ndirect:\n%s\nsharded:\n%s", name, direct, run.Result)
		}
		if run.Degraded != shards {
			t.Fatalf("%s: Degraded = %d, want %d (every shard fell back)", name, run.Degraded, shards)
		}
	}
}

// TestShardedFailoverExhaustionDegrades hands out replacements that die
// instantly: after maxFailoverAttempts the shard must stop retrying and
// degrade, still exact.
func TestShardedFailoverExhaustionDegrades(t *testing.T) {
	tb := equivTable(t, 1000, 0x333)
	q := &Query{Kind: KindDistinct, Table: tb, DistinctCols: []string{"name"}}
	direct, err := ExecDirect(q)
	if err != nil {
		t.Fatal(err)
	}
	dieNow := func(flow uint32, batch int) bool { return true }
	h := newFailoverHarness(t, q, 2, 5, map[int]switchsim.FaultInjector{0: dieNow, 1: dieNow})
	attempts := 0
	var mu sync.Mutex
	run, err := ExecSharded(q, ShardedOptions{
		Shards: 2, Workers: 1, Seed: 5,
		Pruners: h.pruners, Flows: h.flows,
		Failover: func(shard, attempt int) (prune.Pruner, BatchDataplane, error) {
			mu.Lock()
			attempts++
			mu.Unlock()
			p, err := defaultShardPruner(q, 2, 5)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := switchsim.NewPipeline(switchsim.Tofino())
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Install(1, p); err != nil {
				t.Fatal(err)
			}
			pl.SetFaultInjector(dieNow)
			return p, pipeDP{pl: pl, flowID: 1}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !run.Result.Equal(direct) {
		t.Fatalf("results diverge\ndirect:\n%s\nsharded:\n%s", direct, run.Result)
	}
	if run.Degraded != 2 {
		t.Fatalf("Degraded = %d, want 2", run.Degraded)
	}
	if attempts != 2*maxFailoverAttempts {
		t.Fatalf("failover attempts = %d, want %d (cap per shard)", attempts, 2*maxFailoverAttempts)
	}
}
