package switchsim

import "testing"

// TestFailedPipelineForwardsEverything: a dead switch stops pruning —
// every entry forwards (the §7.2 conservative behaviour) — and rejects
// control-plane installs until restored.
func TestFailedPipelineForwardsEverything(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	p := &parityProgram{}
	if err := pl.Install(1, p); err != nil {
		t.Fatal(err)
	}
	b, dec := testBatch(64)
	pl.ProcessBatch(1, b, dec)
	pruned := 0
	for _, d := range dec {
		if d == Prune {
			pruned++
		}
	}
	if pruned == 0 {
		t.Fatal("healthy pipeline pruned nothing — test program broken")
	}

	pl.Fail()
	if !pl.Failed() {
		t.Fatal("Failed() false after Fail()")
	}
	pl.ProcessBatch(1, b, dec)
	for j, d := range dec {
		if d != Forward {
			t.Fatalf("entry %d: dead switch decided %v, want Forward", j, d)
		}
	}
	if d := pl.Process(1, []uint64{3}); d != Forward {
		t.Fatalf("scalar path on dead switch decided %v, want Forward", d)
	}
	if err := pl.Install(2, &parityProgram{}); err == nil {
		t.Fatal("Install succeeded on a dead switch")
	}
	if err := pl.CanInstall(p.Profile()); err == nil {
		t.Fatal("CanInstall succeeded on a dead switch")
	}
}

// TestFaultInjectorKillsBetweenBatches: the injector sees a
// monotonically increasing batch ordinal and kills the switch exactly
// at the chosen boundary — decisions before the kill stand, the killed
// batch and everything after forward.
func TestFaultInjectorKillsBetweenBatches(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(7, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	var seen []int
	pl.SetFaultInjector(func(flowID uint32, batch int) bool {
		if flowID != 7 {
			t.Errorf("injector saw flow %d, want 7", flowID)
		}
		seen = append(seen, batch)
		return batch >= 2 // die between the 2nd and 3rd batch
	})
	for i := 0; i < 4; i++ {
		b, dec := testBatch(32)
		pl.ProcessBatch(7, b, dec)
		pruned := 0
		for _, d := range dec {
			if d == Prune {
				pruned++
			}
		}
		if i < 2 && pruned == 0 {
			t.Fatalf("batch %d before the kill pruned nothing", i)
		}
		if i >= 2 && pruned != 0 {
			t.Fatalf("batch %d after the kill still pruned %d entries", i, pruned)
		}
	}
	if !pl.Failed() {
		t.Fatal("injector fired but pipeline is not failed")
	}
	// Ordinals 0,1,2 were offered; after the kill the injector must not
	// be consulted again.
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("injector saw ordinals %v, want [0 1 2]", seen)
	}
}

// TestFaultInjectorScopedToArmedFlow: batches of other flows advance
// the shared ordinal but a kill triggered by one flow takes the whole
// switch down — the failure domain is the switch, not the flow.
func TestFaultInjectorScopedToArmedFlow(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(1, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(2, &parityProgram{}); err != nil {
		t.Fatal(err)
	}
	pl.SetFaultInjector(func(flowID uint32, batch int) bool { return flowID == 1 })
	b, dec := testBatch(16)
	pl.ProcessBatch(2, b, dec) // not the armed flow: switch stays up
	if pl.Failed() {
		t.Fatal("injector killed the switch from an unarmed flow")
	}
	pl.ProcessBatch(1, b, dec)
	if !pl.Failed() {
		t.Fatal("armed flow did not kill the switch")
	}
	// Both flows now forward — the whole switch is dead.
	pl.ProcessBatch(2, b, dec)
	for j, d := range dec {
		if d != Forward {
			t.Fatalf("flow 2 entry %d decided %v after switch death", j, d)
		}
	}
}
