package switchsim

import (
	"strings"
	"testing"
)

// fakeProgram is a trivial Program for packing tests.
type fakeProgram struct {
	prof    Profile
	verdict Decision
	resets  int
}

func (f *fakeProgram) Profile() Profile          { return f.prof }
func (f *fakeProgram) Process([]uint64) Decision { return f.verdict }
func (f *fakeProgram) Reset()                    { f.resets++ }

func prog(name string, stages, alus, sram int) *fakeProgram {
	return &fakeProgram{prof: Profile{Name: name, Stages: stages, ALUs: alus, SRAMBits: sram}}
}

func TestModelValidate(t *testing.T) {
	if err := Tofino().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Tofino2().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Tofino()
	bad.Stages = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("stage-less model accepted")
	}
	bad = Tofino()
	bad.MetadataBits = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("metadata-less model accepted")
	}
	if Tofino().TotalSRAMBits() != 12*(36<<20) {
		t.Fatal("TotalSRAMBits")
	}
}

func TestProfileValidate(t *testing.T) {
	if err := (Profile{Name: "x", Stages: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Profile{Stages: 1}).Validate(); err == nil {
		t.Fatal("unnamed profile accepted")
	}
	if err := (Profile{Name: "x", Stages: 0}).Validate(); err == nil {
		t.Fatal("0-stage profile accepted")
	}
	if err := (Profile{Name: "x", Stages: 1, ALUs: -1}).Validate(); err == nil {
		t.Fatal("negative ALUs accepted")
	}
}

func TestFormatBits(t *testing.T) {
	cases := []struct {
		bits int
		want string
	}{
		{64, "64b"},
		{8 << 10, "1.0KB"},
		{8 << 20, "1.0MB"},
	}
	for _, c := range cases {
		if got := FormatBits(c.bits); got != c.want {
			t.Errorf("FormatBits(%d) = %q, want %q", c.bits, got, c.want)
		}
	}
}

func TestPipelineInstallAndProcess(t *testing.T) {
	pl, err := NewPipeline(Tofino())
	if err != nil {
		t.Fatal(err)
	}
	p := prog("distinct", 2, 2, 4096*2*64)
	p.verdict = Prune
	if err := pl.Install(7, p); err != nil {
		t.Fatal(err)
	}
	if got := pl.Process(7, []uint64{1}); got != Prune {
		t.Fatalf("Process = %v", got)
	}
	// Unknown flows pass through untouched.
	if got := pl.Process(99, []uint64{1}); got != Forward {
		t.Fatalf("unknown flow = %v", got)
	}
	if err := pl.Install(7, prog("dup", 1, 1, 64)); err == nil {
		t.Fatal("duplicate flow accepted")
	}
}

func TestPipelineStageOrdering(t *testing.T) {
	pl, _ := NewPipeline(Tofino())
	p := prog("ordered", 4, 4, 4*64)
	if err := pl.Install(1, p); err != nil {
		t.Fatal(err)
	}
	phys := pl.Programs()[0].PhysicalStage
	if len(phys) != 4 {
		t.Fatalf("placed %d stages", len(phys))
	}
	for i := 1; i < len(phys); i++ {
		if phys[i] <= phys[i-1] {
			t.Fatalf("logical stages out of order: %v", phys)
		}
	}
}

func TestPipelinePackingSharesStages(t *testing.T) {
	// §6: a 1-ALU filter and an 8-stage group-by pack onto the same
	// stages when per-stage resources suffice.
	pl, _ := NewPipeline(Tofino())
	groupBy := prog("groupby", 8, 8, 4096*8*64)
	filter := prog("filter", 1, 1, 32)
	if err := pl.Install(1, groupBy); err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(2, filter); err != nil {
		t.Fatal(err)
	}
	// Filter's single logical stage should share physical stage 0.
	if got := pl.Programs()[1].PhysicalStage[0]; got != 0 {
		t.Fatalf("filter landed on stage %d, want 0 (shared)", got)
	}
	u := pl.Utilization()
	if u.StagesUsed != 8 {
		t.Fatalf("StagesUsed = %d, want 8", u.StagesUsed)
	}
}

func TestPipelinePackingOverflowsToLaterStages(t *testing.T) {
	// Fill stage ALUs so a second program must start on a later stage.
	m := Tofino()
	m.ALUsPerStage = 2
	pl, _ := NewPipeline(m)
	if err := pl.Install(1, prog("a", 1, 2, 64)); err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(2, prog("b", 1, 2, 64)); err != nil {
		t.Fatal(err)
	}
	s0 := pl.Programs()[0].PhysicalStage[0]
	s1 := pl.Programs()[1].PhysicalStage[0]
	if s0 == s1 {
		t.Fatal("programs with full-stage ALU demand were co-located")
	}
}

func TestPipelineAdmissionFailures(t *testing.T) {
	m := Tofino()
	pl, _ := NewPipeline(m)
	// ALU demand per stage above the model's per-stage capacity.
	if err := pl.Install(1, prog("fat", 1, m.ALUsPerStage+1, 64)); err == nil {
		t.Fatal("over-ALU program accepted")
	}
	// SRAM demand per stage above capacity.
	if err := pl.Install(2, prog("hog", 1, 1, m.SRAMPerStageBits+1)); err == nil {
		t.Fatal("over-SRAM program accepted")
	}
	// More logical stages than available (including recirculation).
	usable := (m.Stages - ReservedStages) * m.Recirculation
	if err := pl.Install(3, prog("long", usable+1, 1, 64)); err == nil {
		t.Fatal("over-length program accepted (reserved stages ignored)")
	}
	// TCAM exhaustion.
	tp := prog("tcam", 1, 1, 64)
	tp.prof.TCAMEntries = m.TCAMEntries + 1
	if err := pl.Install(4, tp); err == nil {
		t.Fatal("over-TCAM program accepted")
	}
	// Metadata exhaustion.
	mp := prog("meta", 1, 1, 64)
	mp.prof.MetadataBits = m.MetadataBits + 1
	if err := pl.Install(5, mp); err == nil {
		t.Fatal("over-metadata program accepted")
	}
	// Failed installs must not leak resources.
	u := pl.Utilization()
	if u.ALUsUsed != 0 || u.SRAMBitsUsed != 0 || u.TCAMUsed != 0 || u.MetaUsed != 0 {
		t.Fatalf("failed installs leaked resources: %+v", u)
	}
}

func TestPipelineUninstallReleasesResources(t *testing.T) {
	pl, _ := NewPipeline(Tofino())
	p := prog("tmp", 3, 6, 3*1024)
	p.prof.TCAMEntries = 10
	p.prof.MetadataBits = 64
	if err := pl.Install(1, p); err != nil {
		t.Fatal(err)
	}
	if err := pl.Uninstall(1); err != nil {
		t.Fatal(err)
	}
	u := pl.Utilization()
	if u.ALUsUsed != 0 || u.SRAMBitsUsed != 0 || u.TCAMUsed != 0 || u.MetaUsed != 0 {
		t.Fatalf("uninstall leaked: %+v", u)
	}
	if err := pl.Uninstall(1); err == nil {
		t.Fatal("double uninstall accepted")
	}
	// Reinstall must work and process correctly after compaction.
	p2 := prog("again", 1, 1, 64)
	p2.verdict = Prune
	if err := pl.Install(2, p2); err != nil {
		t.Fatal(err)
	}
	if pl.Process(2, nil) != Prune {
		t.Fatal("process after reinstall broken")
	}
}

func TestPipelineUninstallKeepsOtherFlows(t *testing.T) {
	pl, _ := NewPipeline(Tofino())
	a := prog("a", 1, 1, 64)
	a.verdict = Prune
	b := prog("b", 1, 1, 64)
	if err := pl.Install(1, a); err != nil {
		t.Fatal(err)
	}
	if err := pl.Install(2, b); err != nil {
		t.Fatal(err)
	}
	if err := pl.Uninstall(2); err != nil {
		t.Fatal(err)
	}
	if pl.Process(1, nil) != Prune {
		t.Fatal("surviving flow lost its program after compaction")
	}
}

func TestPipelineReset(t *testing.T) {
	pl, _ := NewPipeline(Tofino())
	p := prog("r", 1, 1, 64)
	_ = pl.Install(1, p)
	pl.Reset()
	if p.resets != 1 {
		t.Fatalf("resets = %d", p.resets)
	}
}

func TestNewPipelineRejectsTinyModels(t *testing.T) {
	m := Tofino()
	m.Stages = ReservedStages
	if _, err := NewPipeline(m); err == nil {
		t.Fatal("model with only reserved stages accepted")
	}
	m.Stages = 0
	if _, err := NewPipeline(m); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestUtilizationAndString(t *testing.T) {
	pl, _ := NewPipeline(Tofino())
	_ = pl.Install(1, prog("x", 2, 4, 2*512))
	u := pl.Utilization()
	if u.StagesUsed != 2 || u.ALUsUsed != 4 || u.SRAMBitsUsed != 2*512 {
		t.Fatalf("utilization: %+v", u)
	}
	s := pl.String()
	if !strings.Contains(s, "flow 1: x") || !strings.Contains(s, "stage  0") {
		t.Fatalf("String output missing detail:\n%s", s)
	}
}

// TestModelUtilizationMatchesInstall pins Model.Utilization, the
// occupancy of a dedicated switch computed from a profile, to what an
// empty pipeline reports after installing that profile.
func TestModelUtilizationMatchesInstall(t *testing.T) {
	noRecirc := Tofino()
	noRecirc.Recirculation = 0
	for _, m := range []Model{Tofino(), Tofino2(), noRecirc} {
		for _, p := range []Profile{
			{Name: "matrix", Stages: 8, ALUs: 8, SRAMBits: 4096 * 8 * 64, MetadataBits: 160},
			{Name: "uneven", Stages: 3, ALUs: 7, SRAMBits: 1000, TCAMEntries: 128, MetadataBits: 72},
			{Name: "shared", Stages: 2, ALUs: 3, SRAMBits: 1 << 22, SharedStageMemory: true},
			{Name: "empty", Stages: 4},
			{Name: "long", Stages: m.usableStages(), ALUs: 1},
		} {
			pl, err := NewPipeline(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := pl.Install(1, &fakeProgram{prof: p}); err != nil {
				t.Fatalf("%s on %s: %v", p.Name, m.Name, err)
			}
			if got, want := m.Utilization(p), pl.Utilization(); got != want {
				t.Fatalf("%s on %s: Model.Utilization %+v, installed %+v", p.Name, m.Name, got, want)
			}
		}
	}
}

func TestDecisionString(t *testing.T) {
	if Forward.String() != "forward" || Prune.String() != "prune" {
		t.Fatal("decision strings")
	}
}

func TestProfileString(t *testing.T) {
	p := Profile{Name: "distinct", Stages: 2, ALUs: 2, SRAMBits: 4096 * 2 * 64}
	s := p.String()
	if !strings.Contains(s, "distinct") || !strings.Contains(s, "stages=2") {
		t.Fatalf("profile string = %q", s)
	}
}

func TestModelAdmits(t *testing.T) {
	m := Tofino()
	if err := m.Admits(Profile{Name: "ok", Stages: 2, ALUs: 4, SRAMBits: 1 << 20}); err != nil {
		t.Fatalf("small profile rejected: %v", err)
	}
	if err := m.Admits(Profile{Name: "fat", Stages: 1, ALUs: m.ALUsPerStage + 1}); err == nil {
		t.Fatal("per-stage ALU overflow admitted")
	}
	if err := m.Admits(Profile{Name: "hog", Stages: 1, ALUs: 1, SRAMBits: m.SRAMPerStageBits + 1}); err == nil {
		t.Fatal("per-stage SRAM overflow admitted")
	}
	usable := (m.Stages - ReservedStages) * m.Recirculation
	if err := m.Admits(Profile{Name: "long", Stages: usable + 1, ALUs: 1}); err == nil {
		t.Fatal("over-length profile admitted")
	}
	bad := m
	bad.Stages = 0
	if err := bad.Admits(Profile{Name: "any", Stages: 1}); err == nil {
		t.Fatal("invalid model admitted a profile")
	}
}

func TestPipelineCanInstallTracksOccupancy(t *testing.T) {
	m := Tofino()
	pl, _ := NewPipeline(m)
	// A profile that fills every usable stage's ALUs.
	usable := (m.Stages - ReservedStages) * m.Recirculation
	full := Profile{Name: "full", Stages: usable, ALUs: usable * m.ALUsPerStage}
	if err := pl.CanInstall(full); err != nil {
		t.Fatalf("full-pipe profile rejected on empty pipeline: %v", err)
	}
	if err := pl.Install(1, prog("occupant", 1, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := pl.CanInstall(full); err == nil {
		t.Fatal("full-pipe profile admitted on an occupied pipeline")
	}
	// CanInstall must not mutate the pipeline: the occupant still owns
	// exactly one ALU.
	u := pl.Utilization()
	if u.ALUsUsed != 1 {
		t.Fatalf("CanInstall mutated the pipeline: %+v", u)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	pl, _ := NewPipeline(Tofino())
	p := prog("bench", 2, 2, 1024)
	_ = pl.Install(1, p)
	vals := []uint64{42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pl.Process(1, vals)
	}
}
