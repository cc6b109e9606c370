// Package switchsim models the programmable-switch substrate Cheetah runs
// on. The paper deploys on a Barefoot Tofino; this repository has no
// switch hardware (see DESIGN.md), so the package reproduces the part of
// the hardware that *shapes* the algorithms: the PISA resource model —
// a pipeline of stages with per-stage stateful ALUs, per-stage register
// SRAM, shared TCAM, and a bounded metadata (PHV) budget — together with
// the multi-query packing of §6 and a per-packet dataplane executor.
//
// Every pruning algorithm declares a Profile (its Table 2 row); the
// pipeline admission-checks and packs profiles exactly the way the
// control plane allocates hardware, so "does this configuration fit the
// switch?" is answered by the same arithmetic as on the real device.
package switchsim

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrFailed is returned by control-plane operations against a failed
// pipeline: a dead switch accepts no installs and its existing rules
// are gone with the hardware.
var ErrFailed = errors.New("switchsim: pipeline has failed")

// Model describes a switch's hardware resources. The defaults follow the
// constraint ranges quoted in §2.2 (12–60 stages, ≤10 stateful ALUs per
// stage, ≲100 MB SRAM, 100K–300K TCAM entries, 10–20 B of parsed values).
type Model struct {
	Name             string
	Stages           int // physical match-action stages per pipe
	ALUsPerStage     int // stateful ALUs usable per stage
	SRAMPerStageBits int // register SRAM per stage, in bits
	TCAMEntries      int // switch-wide TCAM entry budget
	MetadataBits     int // PHV bits carried between stages
	// Recirculation is the number of pipeline passes available by
	// looping packets through unused pipes (the technique of the paper's
	// reference [46]); it multiplies the usable logical stages at a
	// proportional throughput cost. 0 or 1 means no recirculation.
	Recirculation int
}

// Tofino returns a model with Tofino-like dimensions used throughout the
// evaluation: 12 stages × 10 ALUs, 4 MB of register SRAM per stage
// (48 MB total, inside §2.2's "under 100MB of SRAM"), 150K TCAM entries
// and an IPv6-header-scale metadata budget. The per-stage SRAM admits
// Table 2's default 4 MB join Bloom filter split over its two logical
// stages.
func Tofino() Model {
	return Model{
		Name:             "tofino",
		Stages:           12,
		ALUsPerStage:     10,
		SRAMPerStageBits: 36 << 20, // 4.5 MB per stage
		TCAMEntries:      150_000,
		MetadataBits:     2048,
		Recirculation:    4, // four pipes available for loopback passes
	}
}

// Tofino2 returns a larger model (Table 3's Tofino V2 column): 20 stages
// and double the per-stage SRAM.
func Tofino2() Model {
	return Model{
		Name:             "tofino2",
		Stages:           20,
		ALUsPerStage:     10,
		SRAMPerStageBits: 64 << 20, // 8 MB per stage
		TCAMEntries:      300_000,
		MetadataBits:     4096,
		Recirculation:    4,
	}
}

// Validate reports whether the model is internally consistent.
func (m Model) Validate() error {
	if m.Stages <= 0 || m.ALUsPerStage <= 0 || m.SRAMPerStageBits <= 0 {
		return fmt.Errorf("switchsim: model %q has non-positive stage resources", m.Name)
	}
	if m.TCAMEntries < 0 || m.MetadataBits <= 0 {
		return fmt.Errorf("switchsim: model %q has invalid TCAM/metadata budget", m.Name)
	}
	return nil
}

// TotalSRAMBits returns the switch-wide register SRAM.
func (m Model) TotalSRAMBits() int { return m.Stages * m.SRAMPerStageBits }

// Profile is one algorithm's resource demand — a row of Table 2.
// SRAMBits is the total register demand; it is spread across the
// algorithm's logical stages. SharedStageMemory marks the algorithms
// footnoted (*) in Table 2, whose same-stage ALUs address one memory
// space and can therefore fold multiple logical columns into one physical
// stage (DISTINCT-FIFO, JOIN-BF).
type Profile struct {
	Name              string
	Stages            int
	ALUs              int
	SRAMBits          int
	TCAMEntries       int
	MetadataBits      int
	SharedStageMemory bool
}

// Validate reports whether the profile is well-formed.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("switchsim: profile with empty name")
	}
	if p.Stages <= 0 {
		return fmt.Errorf("switchsim: profile %q needs at least one stage", p.Name)
	}
	if p.ALUs < 0 || p.SRAMBits < 0 || p.TCAMEntries < 0 || p.MetadataBits < 0 {
		return fmt.Errorf("switchsim: profile %q has negative resources", p.Name)
	}
	return nil
}

// String renders the profile as a Table 2-style row.
func (p Profile) String() string {
	return fmt.Sprintf("%-18s stages=%-3d ALUs=%-4d SRAM=%s TCAM=%d",
		p.Name, p.Stages, p.ALUs, FormatBits(p.SRAMBits), p.TCAMEntries)
}

// FormatBits renders a bit count in human units (b, KB, MB).
func FormatBits(bits int) string {
	bytes := float64(bits) / 8
	switch {
	case bytes >= 1<<20:
		return fmt.Sprintf("%.1fMB", bytes/(1<<20))
	case bytes >= 1<<10:
		return fmt.Sprintf("%.1fKB", bytes/(1<<10))
	default:
		return fmt.Sprintf("%db", bits)
	}
}

// Decision is a dataplane verdict for one entry.
type Decision uint8

const (
	// Forward sends the packet on to the master.
	Forward Decision = iota
	// Prune drops the packet (and ACKs it under the reliability protocol).
	Prune
)

// String renders the decision.
func (d Decision) String() string {
	if d == Prune {
		return "prune"
	}
	return "forward"
}

// Program is a pruning algorithm admitted to the pipeline: a resource
// profile plus the per-entry function executed in the dataplane. Values
// reaching the dataplane are the parsed Cheetah header values (already
// fingerprinted by the CWorker when needed).
type Program interface {
	Profile() Profile
	// Process inspects one entry's header values and decides its fate.
	// It must not retain vals.
	Process(vals []uint64) Decision
	// Reset clears the program's switch state (reboot / new query run).
	Reset()
}

// stageUse tracks the resources consumed on one physical stage.
type stageUse struct {
	alus     int
	sramBits int
}

// Placement records where one program's logical stages landed.
type Placement struct {
	Program       Program
	FlowID        uint32
	PhysicalStage []int // physical stage index per logical stage, ascending
}

// Pipeline is a configured switch: a model plus the set of admitted
// programs and their placements. One extra "selection" stage is reserved
// for the per-query prune-bit mux of §6, and two stages for the
// reliability protocol (§7.1: "our reliability protocol ... takes two
// pipeline stages on the hardware switch").
//
// A Pipeline is safe for concurrent use under a per-flow ownership
// discipline: control-plane mutations (Install, Uninstall, Reset) take
// the write lock, dataplane and inspection paths the read lock — the §5
// concurrency model, where many queries' traffic crosses the switch
// while the control plane installs and removes programs. Distinct flows
// may process batches in parallel. One flow's traffic must stay
// single-threaded (as one query's packets arrive in order on the wire),
// and the flow's owner must stop sending before uninstalling it. The
// lock protects the placement tables, not program state: Process and
// ProcessBatch run the program after releasing the read lock, so Reset
// — which touches every program — must not run concurrently with
// dataplane traffic (it models a switch reboot, not a hot path).
type Pipeline struct {
	mu          sync.RWMutex
	model       Model
	stages      []stageUse
	tcamUsed    int
	metaUsed    int
	placements  []Placement
	byFlow      map[uint32]*Placement
	reservedTop int // stages reserved for selection + reliability
	failed      bool
	injector    FaultInjector
	batchSeq    atomic.Uint64 // dataplane batches seen, for the injector
}

// FaultInjector decides, before batch ordinal n crosses the pipeline,
// whether the switch dies at that instant — i.e. between batch n-1 and
// batch n. flowID is the flow about to process. A true return kills the
// pipeline exactly as Fail does, except that the victim flow's program
// state is also scrubbed (the calling goroutine owns that flow's
// traffic, so the reset is within the per-flow ownership discipline —
// the state a real switch loses at power-off). The injector must be
// fast and must not call back into the pipeline.
type FaultInjector func(flowID uint32, batch int) bool

// ReservedStages is the number of pipeline stages held back for the §6
// prune-bit selection stage and the §7 reliability protocol.
const ReservedStages = 3

// NewPipeline creates an empty pipeline for the model.
func NewPipeline(m Model) (*Pipeline, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Stages <= ReservedStages {
		return nil, fmt.Errorf("switchsim: model %q has %d stages, needs > %d", m.Name, m.Stages, ReservedStages)
	}
	return &Pipeline{
		model:       m,
		stages:      make([]stageUse, m.usableStages()),
		byFlow:      make(map[uint32]*Placement),
		reservedTop: ReservedStages,
	}, nil
}

// usableStages is the physical stages a pipeline of the model packs
// programs onto: the unreserved stages of every recirculation pass.
func (m Model) usableStages() int {
	return (m.Stages - ReservedStages) * max(m.Recirculation, 1)
}

// perStage spreads p's demand evenly over its logical stages: the ALUs
// and SRAM bits each of them takes on its physical stage.
func perStage(p Profile) (alus, sramBits int) {
	return ceilDiv(p.ALUs, p.Stages), ceilDiv(p.SRAMBits, p.Stages)
}

// Utilization is the occupancy of an otherwise empty switch of the model
// running one program with profile p, which the model admits (Admits):
// what a new pipeline's Utilization reports after installing it, without
// building one. On an empty switch the in-order packing lands logical
// stage j on physical stage j.
func (m Model) Utilization(p Profile) Utilization {
	stages := m.usableStages()
	alus, sram := perStage(p)
	u := Utilization{
		StagesTotal:  stages,
		ALUsUsed:     p.Stages * alus,
		ALUsTotal:    stages * m.ALUsPerStage,
		SRAMBitsUsed: p.Stages * sram,
		SRAMBitsCap:  stages * m.SRAMPerStageBits,
		TCAMUsed:     p.TCAMEntries,
		TCAMTotal:    m.TCAMEntries,
		MetaUsed:     p.MetadataBits,
		MetaTotal:    m.MetadataBits,
	}
	if alus > 0 || sram > 0 {
		u.StagesUsed = p.Stages
	}
	return u
}

// Model returns the pipeline's hardware model.
func (pl *Pipeline) Model() Model { return pl.model }

// SetFaultInjector installs (or, with nil, removes) the pipeline's
// fault hook. Chaos harnesses arm it before traffic starts.
func (pl *Pipeline) SetFaultInjector(fi FaultInjector) {
	pl.mu.Lock()
	pl.injector = fi
	pl.mu.Unlock()
}

// Fail marks the pipeline dead: every subsequent dataplane decision is
// Forward (a dead switch prunes nothing — the §7.2 backstop's exactness
// anchor) and control-plane operations fail with ErrFailed. Program
// state is NOT scrubbed here — in-flight batches of other flows may be
// executing their programs, and the serving layer treats a dead
// switch's state as lost regardless (revoked leases are never drained).
// Idempotent.
func (pl *Pipeline) Fail() {
	pl.mu.Lock()
	pl.failed = true
	pl.mu.Unlock()
}

// Failed reports whether the pipeline is dead.
func (pl *Pipeline) Failed() bool {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return pl.failed
}

// killFromFlow is the injector-initiated death: the calling goroutine
// owns flowID's traffic, so that one program's state can be scrubbed
// safely (modeling the register loss of a real power-off). Other flows'
// programs simply go quiet — the dead pipeline stops invoking them.
func (pl *Pipeline) killFromFlow(flowID uint32) {
	pl.mu.Lock()
	if !pl.failed {
		pl.failed = true
		if plc, ok := pl.byFlow[flowID]; ok {
			plc.Program.Reset()
		}
	}
	pl.mu.Unlock()
}

// Programs returns a snapshot of the admitted placements in installation
// order.
func (pl *Pipeline) Programs() []Placement {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	return append([]Placement(nil), pl.placements...)
}

// placeProfile admission-checks p against the pipeline's remaining
// resources and returns the physical stage each logical stage would land
// on, without committing anything. It is the planning half of Install and
// the substrate of the CanInstall/Admits admission queries.
func (pl *Pipeline) placeProfile(p Profile) (phys []int, perStageALUs, perStageSRAM int, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, err
	}
	if p.TCAMEntries > pl.model.TCAMEntries-pl.tcamUsed {
		return nil, 0, 0, fmt.Errorf("switchsim: %s needs %d TCAM entries, %d free",
			p.Name, p.TCAMEntries, pl.model.TCAMEntries-pl.tcamUsed)
	}
	if p.MetadataBits > pl.model.MetadataBits-pl.metaUsed {
		return nil, 0, 0, fmt.Errorf("switchsim: %s needs %d metadata bits, %d free",
			p.Name, p.MetadataBits, pl.model.MetadataBits-pl.metaUsed)
	}
	perStageALUs, perStageSRAM = perStage(p)
	if perStageALUs > pl.model.ALUsPerStage {
		return nil, 0, 0, fmt.Errorf("switchsim: %s needs %d ALUs in one stage, model has %d",
			p.Name, perStageALUs, pl.model.ALUsPerStage)
	}
	if perStageSRAM > pl.model.SRAMPerStageBits {
		return nil, 0, 0, fmt.Errorf("switchsim: %s needs %s SRAM in one stage, model has %s",
			p.Name, FormatBits(perStageSRAM), FormatBits(pl.model.SRAMPerStageBits))
	}
	// Greedy in-order packing: logical stage j goes to the earliest
	// physical stage after logical stage j-1's with enough headroom.
	phys = make([]int, 0, p.Stages)
	next := 0
	for l := 0; l < p.Stages; l++ {
		placed := false
		for s := next; s < len(pl.stages); s++ {
			if pl.stages[s].alus+perStageALUs <= pl.model.ALUsPerStage &&
				pl.stages[s].sramBits+perStageSRAM <= pl.model.SRAMPerStageBits {
				phys = append(phys, s)
				next = s + 1
				placed = true
				break
			}
		}
		if !placed {
			return nil, 0, 0, fmt.Errorf("switchsim: cannot pack %s: logical stage %d/%d finds no physical stage with %d ALUs and %s SRAM free",
				p.Name, l+1, p.Stages, perStageALUs, FormatBits(perStageSRAM))
		}
	}
	return phys, perStageALUs, perStageSRAM, nil
}

// CanInstall reports whether a program with this profile would be
// admitted given the pipeline's current occupancy, without installing
// anything. A nil return means a subsequent Install with an unused flow
// id will succeed.
func (pl *Pipeline) CanInstall(p Profile) error {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	if pl.failed {
		return ErrFailed
	}
	_, _, _, err := pl.placeProfile(p)
	return err
}

// Admits answers the control-plane admission question for an empty
// switch: does a program with this profile fit the model at all? It is
// the planner's pre-flight check before any query state is allocated.
func (m Model) Admits(p Profile) error {
	pl, err := NewPipeline(m)
	if err != nil {
		return err
	}
	return pl.CanInstall(p)
}

// Install admission-checks prog's profile against the remaining resources
// and, if it fits, packs its logical stages greedily onto the earliest
// physical stages with spare capacity (§6's concurrent packing: different
// queries share stages when their combined ALU/SRAM demand fits). The
// program becomes the handler for flowID.
func (pl *Pipeline) Install(flowID uint32, prog Program) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.failed {
		return ErrFailed
	}
	if _, dup := pl.byFlow[flowID]; dup {
		return fmt.Errorf("switchsim: flow %d already has a program", flowID)
	}
	p := prog.Profile()
	phys, perStageALUs, perStageSRAM, err := pl.placeProfile(p)
	if err != nil {
		return err
	}
	// Commit.
	for _, s := range phys {
		pl.stages[s].alus += perStageALUs
		pl.stages[s].sramBits += perStageSRAM
	}
	pl.tcamUsed += p.TCAMEntries
	pl.metaUsed += p.MetadataBits
	pl.placements = append(pl.placements, Placement{Program: prog, FlowID: flowID, PhysicalStage: phys})
	pl.byFlow[flowID] = &pl.placements[len(pl.placements)-1]
	return nil
}

// Uninstall removes the program bound to flowID and releases its
// resources.
func (pl *Pipeline) Uninstall(flowID uint32) error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.failed {
		return ErrFailed
	}
	plc, ok := pl.byFlow[flowID]
	if !ok {
		return fmt.Errorf("switchsim: flow %d has no program", flowID)
	}
	p := plc.Program.Profile()
	perStageALUs, perStageSRAM := perStage(p)
	for _, s := range plc.PhysicalStage {
		pl.stages[s].alus -= perStageALUs
		pl.stages[s].sramBits -= perStageSRAM
	}
	pl.tcamUsed -= p.TCAMEntries
	pl.metaUsed -= p.MetadataBits
	delete(pl.byFlow, flowID)
	for i := range pl.placements {
		if pl.placements[i].FlowID == flowID {
			pl.placements = append(pl.placements[:i], pl.placements[i+1:]...)
			break
		}
	}
	// byFlow holds pointers into placements; rebuild after compaction.
	pl.byFlow = make(map[uint32]*Placement, len(pl.placements))
	for i := range pl.placements {
		pl.byFlow[pl.placements[i].FlowID] = &pl.placements[i]
	}
	return nil
}

// Process runs the program bound to flowID over one entry. Unknown flows
// are forwarded untouched — the switch stays transparent to traffic it has
// no rules for (§3: "fully compatible with other network functions").
func (pl *Pipeline) Process(flowID uint32, vals []uint64) Decision {
	pl.mu.RLock()
	failed := pl.failed
	prog := pl.programOf(flowID)
	pl.mu.RUnlock()
	if failed || prog == nil {
		return Forward
	}
	return prog.Process(vals)
}

// programOf returns the program bound to flowID, or nil. Callers hold at
// least the read lock.
func (pl *Pipeline) programOf(flowID uint32) Program {
	if plc, ok := pl.byFlow[flowID]; ok {
		return plc.Program
	}
	return nil
}

// Reset clears all program state (the "reboot the switch with empty
// states" failure-recovery path of §3) while keeping installations.
func (pl *Pipeline) Reset() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, plc := range pl.placements {
		plc.Program.Reset()
	}
}

// Utilization summarizes consumed resources.
type Utilization struct {
	StagesUsed   int // physical stages with any allocation (excl. reserved)
	StagesTotal  int
	ALUsUsed     int
	ALUsTotal    int
	SRAMBitsUsed int
	SRAMBitsCap  int
	TCAMUsed     int
	TCAMTotal    int
	MetaUsed     int
	MetaTotal    int
}

// Add accumulates o into u — fabric-wide occupancy totals (used and
// capacity both sum across pipelines). Lives next to the struct so a
// new resource field is summed the day it is added.
func (u *Utilization) Add(o Utilization) {
	u.StagesUsed += o.StagesUsed
	u.StagesTotal += o.StagesTotal
	u.ALUsUsed += o.ALUsUsed
	u.ALUsTotal += o.ALUsTotal
	u.SRAMBitsUsed += o.SRAMBitsUsed
	u.SRAMBitsCap += o.SRAMBitsCap
	u.TCAMUsed += o.TCAMUsed
	u.TCAMTotal += o.TCAMTotal
	u.MetaUsed += o.MetaUsed
	u.MetaTotal += o.MetaTotal
}

// String renders the utilization as one line of used/total pairs.
func (u Utilization) String() string {
	return fmt.Sprintf("stages %d/%d ALUs %d/%d SRAM %s/%s TCAM %d/%d meta %d/%d",
		u.StagesUsed, u.StagesTotal, u.ALUsUsed, u.ALUsTotal,
		FormatBits(u.SRAMBitsUsed), FormatBits(u.SRAMBitsCap),
		u.TCAMUsed, u.TCAMTotal, u.MetaUsed, u.MetaTotal)
}

// Utilization reports current resource consumption.
func (pl *Pipeline) Utilization() Utilization {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	u := Utilization{
		StagesTotal: len(pl.stages),
		ALUsTotal:   len(pl.stages) * pl.model.ALUsPerStage,
		SRAMBitsCap: len(pl.stages) * pl.model.SRAMPerStageBits,
		TCAMUsed:    pl.tcamUsed,
		TCAMTotal:   pl.model.TCAMEntries,
		MetaUsed:    pl.metaUsed,
		MetaTotal:   pl.model.MetadataBits,
	}
	for _, s := range pl.stages {
		if s.alus > 0 || s.sramBits > 0 {
			u.StagesUsed++
		}
		u.ALUsUsed += s.alus
		u.SRAMBitsUsed += s.sramBits
	}
	return u
}

// String renders a per-stage occupancy map.
func (pl *Pipeline) String() string {
	pl.mu.RLock()
	defer pl.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline(%s): %d usable stages (+%d reserved)\n",
		pl.model.Name, len(pl.stages), pl.reservedTop)
	for i, s := range pl.stages {
		if s.alus == 0 && s.sramBits == 0 {
			continue
		}
		fmt.Fprintf(&b, "  stage %2d: ALUs %d/%d SRAM %s/%s\n", i,
			s.alus, pl.model.ALUsPerStage,
			FormatBits(s.sramBits), FormatBits(pl.model.SRAMPerStageBits))
	}
	flows := make([]int, 0, len(pl.byFlow))
	for f := range pl.byFlow {
		flows = append(flows, int(f))
	}
	sort.Ints(flows)
	for _, f := range flows {
		plc := pl.byFlow[uint32(f)]
		fmt.Fprintf(&b, "  flow %d: %s at stages %v\n", f, plc.Program.Profile().Name, plc.PhysicalStage)
	}
	return b.String()
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
