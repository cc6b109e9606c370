package main

// The traced pass: per-layer metrics. Probes call each layer's public
// functions directly on the workload's own tables, specs, oracle results
// and batches, one harness span around every call; then the workload's
// phases run once untraced (short) and once with spans on, which gives
// the per-op `layers` rows and the harness's own tracing overhead.
// Probes run first, while the primary table still is the preload.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/netserve"
	"cheetah/internal/obs"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/wire"
)

// Shares of -seconds the parts of the traced pass get. The probes are
// also bounded below (every kind is measured at least twice), so a
// traced pass runs somewhat longer than -seconds on the large tables.
const (
	engineProbeShare = 0.2
	obsProbeShare    = 0.15
	netProbeShare    = 0.07
	plainShare       = 0.3
	tracedShare      = 0.5

	probeCalls = 200 // pings and dials
	probeBatch = 64  // batches of the table and append-codec probes
)

func (e *env) tracedPass(ctx context.Context, tr *tracer, m *measured, rep *report) error {
	budget := func(share float64) time.Duration {
		return time.Duration(share * e.o.seconds * float64(time.Second))
	}
	for _, s := range tr.spans { // set-up spans recorded by setup
		if s.Name == "BuildSkipIndex" {
			rep.set("table.skip_build_ms", s.ms())
		}
	}
	if err := e.probeEngine(ctx, tr, m.or, budget(engineProbeShare), rep); err != nil {
		return fmt.Errorf("engine probe: %w", err)
	}
	if err := e.probeObs(ctx, m.or, budget(obsProbeShare), rep); err != nil {
		return fmt.Errorf("obs probe: %w", err)
	}
	if err := e.probeWire(tr, m.or, rep); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := e.probeNet(ctx, tr, m.or, budget(netProbeShare), rep); err != nil {
		return fmt.Errorf("netserve probe: %w", err)
	}
	e.probeTable(tr, rep)

	// The workload itself: untraced, then with harness spans.
	pause0 := gcPauseSeconds()
	plain := e.runPhases(ctx, nil, m.or, plainShare*e.o.seconds, false)
	if r, ok := e.dep.(*remote); ok {
		r.mu.Lock()
		r.countBytes = true
		r.mu.Unlock()
	}
	traced := e.runPhases(ctx, tr, m.or, tracedShare*e.o.seconds, true)
	m.gcPauseS = gcPauseSeconds() - pause0
	m.calibMs[1] = calibrate()
	for _, ph := range []*phases{plain, traced} {
		for _, l := range ph.loops() {
			if err := e.verifySnapshotReads(l); err != nil {
				return err
			}
		}
		e.verifySubs(ph.ing)
		ph.count(rep)
	}
	ing := traced.ing

	// client.* and harness.*: the untraced loop of this pass.
	lat := plain.lat.latencies()
	hi := hiPercentile(len(lat[0]))
	rep.set("client.hi_pct", hi)
	rep.set("client.samples_per_kind", float64(len(lat[0])))
	for k, name := range kinds {
		rep.set("client.hi_ms."+name, percentile(lat[k], hi))
		rep.set("client.p50_ms."+name, median(lat[k]))
	}
	_, blockRates := plain.tput.queriesPerSec()
	rep.set("harness.block_spread", spread(blockRates))
	rep.set("harness.gc_pause_ms", m.gcPauseS*1000)
	rep.set("harness.calib_ms", median(m.calibMs[:]))
	rep.info("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	rep.info("oracle_s", m.or.seconds, "s")
	rep.info("calib_before_ms", m.calibMs[0], "ms")
	rep.info("calib_after_ms", m.calibMs[1], "ms")

	// stream.*: the traced ingest phases.
	rep.set("stream.append_ack_p50_us", median(ing.ackUs))
	for i, k := range subKinds {
		rep.set("stream.fresh_p50_ms."+kinds[k], median(ing.subFreshMs[i]))
	}
	rep.set("stream.updates_per_batch", ing.updatesPerBatch)
	rep.set("wire.update_bytes_per_batch", e.updateBytesPerBatch(ing))
	if e.w.remote {
		fresh, err := e.probeInprocFresh(ctx, rep)
		if err != nil {
			return fmt.Errorf("in-process stream probe: %w", err)
		}
		rep.set("stream.inproc_fresh_p50_ms", fresh)
	} else {
		rep.set("stream.inproc_fresh_p50_ms", median(ing.freshMs))
	}

	e.layersRows(rep, traced.lat)
	tlat := traced.lat.latencies()
	var sumPlain, sumTraced float64
	for k := range kinds {
		sumPlain += median(lat[k])
		sumTraced += median(tlat[k])
	}
	if sumPlain > 0 {
		rep.info("harness.tracing_overhead", sumTraced/sumPlain-1, "ratio")
	}
	busyInfo(rep, traced.busy)
	rep.info("spans", float64(len(tr.spans)), "count")
	return tr.write(filepath.Join(e.o.outDir, "trace-"+e.w.Name+".jsonl"))
}

// updateBytesPerBatch is the encoded size of the UpdateMsgs a batch
// triggers: on a remote deployment the bytes that arrived over the
// traced ingest phases per batch appended (coalescing lowers it), on a
// local one the four standing results encoded as the updates a server
// would push.
func (e *env) updateBytesPerBatch(ing *ingestResult) float64 {
	if r, ok := e.dep.(*remote); ok {
		r.mu.Lock()
		defer r.mu.Unlock()
		if ing.batches == 0 {
			return 0
		}
		return float64(r.updateBytes) / float64(ing.batches)
	}
	var bytes int
	for i := 0; i < numSubs; i++ {
		if res, ver := e.dep.standing(i); res != nil {
			u := wire.UpdateMsg{ID: uint64(i), Version: ver, Columns: res.Columns, Rows: res.Rows}
			bytes += len(u.EncodeBody(nil))
		}
	}
	return float64(bytes)
}

// check verifies a probe's answer and counts it as an attempted op.
func check(rep *report, what string, got, want *engine.Result) {
	if sameResult(got, want) {
		rep.count(1, 0)
	} else {
		rep.count(1, 1, fmt.Errorf("%s: answer differs from ExecDirect", what))
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// stageMs sums the stage totals an execution reported for the named
// stages.
func stageMs(stages []obs.StageTotal, names ...obs.Stage) float64 {
	var ns int64
	for _, st := range stages {
		for _, n := range names {
			if st.Stage == n {
				ns += st.Nanos
			}
		}
	}
	return float64(ns) / 1e6
}

// probeEngine measures the plan and engine layers on an in-process
// session over the workload's tables at the workload's fabric width:
// Session.Plan, Session.ExecPlan with the pre-built plan (what the
// program reports: stage totals, traffic, skip counts), and
// engine.ExecCheetah fused against NoFuse.
func (e *env) probeEngine(ctx context.Context, tr *tracer, or *oracle, budget time.Duration, rep *report) error {
	var sess *plan.Session
	var err error
	open := tr.timed(nil, "plan", "plan.Open", func() {
		sess, err = plan.Open(e.primary, plan.Options{Workers: 1, Switches: e.w.switches, Seed: e.o.seed})
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	rep.set("plan.open_ms", open.ms())

	var planUs, wallMs, passMs, mergeMs, allocKB, fusedMs, batchMs [numKinds][]float64
	var fwdShare, skipShare [numKinds]float64
	t0 := time.Now()
	for r := 0; r < 2 || time.Since(t0) < budget; r++ {
		for k := range kinds {
			i := (r%numVariants)*numKinds + k
			q, name := e.ops[i], kinds[k]
			root := tr.begin(nil, "harness", "probe.engine."+name)
			var p *plan.Plan
			ps := tr.timed(root, "plan", "Session.Plan", func() { p, err = sess.Plan(q) })
			if err != nil {
				return err
			}
			a0 := heapAllocBytes()
			s := tr.begin(root, "engine", "Session.ExecPlan")
			ex, err := sess.ExecPlan(ctx, p)
			if err != nil {
				return err
			}
			allocKB[k] = append(allocKB[k], float64(heapAllocBytes()-a0)/1024)
			out := execOut(ex)
			tr.end(s, out.counts())
			check(rep, "ExecPlan "+name, ex.Result, or.res[i])
			planUs[k] = append(planUs[k], ps.us())
			wallMs[k] = append(wallMs[k], float64(ex.Wall)/1e6)
			passMs[k] = append(passMs[k], stageMs(out.stages, obs.StageFused, obs.StageEncode, obs.StagePrune, obs.StageShard, obs.StageScan))
			mergeMs[k] = append(mergeMs[k], stageMs(out.stages, obs.StageMerge))
			if r == 0 { // exact counts: the same on every repetition
				if ex.Traffic.EntriesSent > 0 {
					fwdShare[k] = float64(ex.Traffic.Forwarded) / float64(ex.Traffic.EntriesSent)
				}
				if ex.BlocksSeen > 0 {
					skipShare[k] = float64(ex.BlocksSkipped) / float64(ex.BlocksSeen)
				}
			}
			for _, noFuse := range []bool{false, true} {
				label := "ExecCheetah"
				if noFuse {
					label = "ExecCheetah.NoFuse"
				}
				s := tr.begin(root, "engine", label)
				run, err := engine.ExecCheetah(q, engine.CheetahOptions{Workers: 1, Seed: e.o.seed, Skip: true, NoFuse: noFuse})
				tr.end(s, nil)
				if err != nil {
					return err
				}
				check(rep, label+" "+name, run.Result, or.res[i])
				if noFuse {
					batchMs[k] = append(batchMs[k], float64(run.Wall)/1e6)
				} else {
					fusedMs[k] = append(fusedMs[k], float64(run.Wall)/1e6)
				}
			}
			tr.end(root, nil)
		}
	}
	for k, name := range kinds {
		rep.set("plan.plan_us."+name, median(planUs[k]))
		rep.set("engine.pass_ms."+name, median(passMs[k]))
		rep.set("engine.merge_ms."+name, median(mergeMs[k]))
		rep.set("engine.direct_ratio."+name, median(wallMs[k])/median(or.directMs[k]))
		rep.set("engine.forwarded_share."+name, fwdShare[k])
		rep.set("engine.alloc_kb."+name, median(allocKB[k]))
		rep.set("engine.fused_over_batch."+name, median(fusedMs[k])/median(batchMs[k]))
	}
	rep.set("table.blocks_skipped_share.filter_range", skipShare[opFilterRange])
	rep.set("table.blocks_skipped_share.topn", skipShare[opTopN])
	rep.set("table.blocks_skipped_share.join", skipShare[opJoin])
	return nil
}

// untiled is |Σ top-level spans − wall| ÷ wall for one execution. A span
// is top-level when no other span of the trace contains it; a trace that
// is an accounting identity has top-level spans that tile the wall.
func untiled(spans []obs.Span, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var sum time.Duration
	for i, s := range spans {
		nested := false
		for j, o := range spans {
			if i != j && o.Dur > s.Dur && o.Start <= s.Start && s.Start+s.Dur <= o.Start+o.Dur {
				nested = true
				break
			}
		}
		if !nested {
			sum += s.Dur
		}
	}
	d := sum - wall
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(wall)
}

// probeObs measures the program's own default-on tracing: cycles over
// the nine kinds alternate between a default session and one opened
// with DisableTracing, and the default session's traces are checked for
// tiling their execution's wall.
func (e *env) probeObs(ctx context.Context, or *oracle, budget time.Duration, rep *report) error {
	var sess [2]*plan.Session // 0: tracing on (default), 1: off
	for i := range sess {
		s, err := plan.Open(e.primary, plan.Options{Workers: 1, Switches: e.w.switches, Seed: e.o.seed, DisableTracing: i == 1})
		if err != nil {
			return err
		}
		defer s.Close()
		sess[i] = s
	}
	var ms [2][numKinds][]float64
	var gaps [numKinds][]float64
	t0 := time.Now()
	for r := 0; r < 2 || time.Since(t0) < budget; r++ {
		for half := 0; half < 2; half++ {
			which := (r + half) % 2 // alternate which session goes first
			for k, name := range kinds {
				i := (r%numVariants)*numKinds + k
				t1 := time.Now()
				ex, err := sess[which].Exec(ctx, e.ops[i])
				d := msSince(t1)
				if err != nil {
					return err
				}
				check(rep, "Exec "+name, ex.Result, or.res[i])
				ms[which][k] = append(ms[which][k], d)
				if which == 0 {
					gaps[k] = append(gaps[k], untiled(ex.Trace().Spans(), ex.Wall))
				}
			}
		}
	}
	var on, off, worst float64
	for k := range kinds {
		on += median(ms[0][k])
		off += median(ms[1][k])
		if g := median(gaps[k]); g > worst {
			worst = g
		}
	}
	rep.set("obs.overhead_share", on/off-1)
	rep.set("obs.untiled_share", worst)
	return nil
}

// catalog is the table map specs bind against, as the server holds it.
func (e *env) catalog() map[string]*table.Table {
	return map[string]*table.Table{tPrimary: e.primary, tRankings: e.rank}
}

// probeWire times the wire codecs on the workload's own 36 specs, their
// oracle results and append batches.
func (e *env) probeWire(tr *tracer, or *oracle, rep *report) error {
	specs, err := specsOf(e.ops)
	if err != nil {
		return err
	}
	tables := e.catalog()
	var encUs, decUs []float64
	var resEncUs, resDecUs float64
	var rows int
	for r := 0; r < 3; r++ {
		for i, q := range e.ops {
			root := tr.begin(nil, "harness", "probe.wire."+kinds[opKind(i)])
			var body []byte
			s := tr.timed(root, "wire", "SpecOf+QueryReq.EncodeBody", func() {
				var spec *wire.QuerySpec
				if spec, err = wire.SpecOf(q, specs[i].Table, specs[i].Right); err == nil {
					req := wire.QueryReq{ID: uint64(i + 1), Priority: 1, Spec: *spec}
					body = req.EncodeBody(nil)
				}
			})
			if err != nil {
				return err
			}
			encUs = append(encUs, s.us())
			s = tr.timed(root, "wire", "QueryReq.DecodeBody+QuerySpec.Bind", func() {
				var req wire.QueryReq
				if err = req.DecodeBody(body); err == nil {
					_, err = req.Spec.Bind(tables)
				}
			})
			if err != nil {
				return err
			}
			decUs = append(decUs, s.us())

			msg := wire.ResultMsg{ID: uint64(i + 1), Mode: uint8(plan.ModeCheetah), Columns: or.res[i].Columns, Rows: or.res[i].Rows}
			s = tr.timed(root, "wire", "ResultMsg.EncodeBody", func() { body = msg.EncodeBody(nil) })
			resEncUs += s.us()
			var back wire.ResultMsg
			s = tr.timed(root, "wire", "ResultMsg.DecodeBody", func() { err = back.DecodeBody(body) })
			if err != nil {
				return err
			}
			resDecUs += s.us()
			rows += len(msg.Rows)
			check(rep, "ResultMsg round trip "+kinds[opKind(i)], &engine.Result{Columns: back.Columns, Rows: back.Rows}, or.res[i])
			tr.end(root, map[string]int64{"rows": int64(len(msg.Rows)), "bytes": int64(len(body))})
		}
	}
	rep.set("wire.spec_encode_us", median(encUs))
	rep.set("wire.spec_decode_bind_us", median(decUs))
	rep.set("wire.result_encode_us_per_krow", resEncUs/float64(rows)*1000)
	rep.set("wire.result_decode_us_per_krow", resDecUs/float64(rows)*1000)

	// A generator of its own: the probe must not consume the batches of
	// the ingest phases.
	gen := newBatchGen(int(e.preload), e.o.seed^0xc0dec)
	var codecUs []float64
	for k := 0; k < probeBatch; k++ {
		b := gen.next()
		s := tr.timed(nil, "wire", "AppendReq.codec", func() {
			body := wire.AppendBatchOf(uint64(k+1), b).EncodeBody(nil)
			var req wire.AppendReq
			if err = req.DecodeBody(body); err == nil {
				_, err = req.Batch(b.Schema())
			}
		})
		if err != nil {
			return err
		}
		codecUs = append(codecUs, s.us())
	}
	rep.set("wire.append_codec_us", median(codecUs))
	return nil
}

// probeNet measures the netserve and serve layers with one idle
// connection: pings, closed-loop queries (client RTT against the
// server's own wall, the admit stage of its trace), and dial+handshake+
// close. A remote workload lends its own server; a local one gets a
// loopback server over its tables for the probe.
func (e *env) probeNet(ctx context.Context, tr *tracer, or *oracle, budget time.Duration, rep *report) error {
	r, ok := e.dep.(*remote)
	if !ok {
		var err error
		if r, err = openRemote(ctx, nil, e, 1, 1, false); err != nil {
			return err
		}
		defer r.close()
	}
	cl := r.conns[r.first]
	var pingUs, dialUs, overheadUs, admitUs []float64
	for n := 0; n < probeCalls; n++ {
		var err error
		s := tr.timed(nil, "netserve", "Client.Ping", func() { err = cl.Ping(ctx) })
		if err != nil {
			return err
		}
		pingUs = append(pingUs, s.us())
	}
	before := r.srv.Stats()
	direct, answered := 0, 0
	t0 := time.Now()
	for n := 0; n < 2*numKinds || time.Since(t0) < budget; n++ {
		i := n % period
		root := tr.begin(nil, "harness", "probe.net."+kinds[opKind(i)])
		out, err := r.query(ctx, tr, root, 0, i)
		tr.end(root, nil)
		if err != nil {
			return err
		}
		check(rep, "Client.Query "+kinds[opKind(i)], &out.res, or.res[i])
		overheadUs = append(overheadUs, out.callUs-float64(out.wall)/1e3)
		admitUs = append(admitUs, stageMs(out.stages, obs.StageAdmit)*1000)
		answered++
		if out.direct {
			direct++
		}
	}
	after := r.srv.Stats()
	for n := 0; n < probeCalls; n++ {
		var err error
		s := tr.timed(nil, "netserve", "Dial+Close", func() {
			var c *netserve.Client
			if c, err = netserve.Dial(r.srv.Addr().String(), "probe"); err == nil {
				// The server may hang up first once it reads the goodbye;
				// Close then reports the connection already closed.
				_ = c.Close()
			}
		})
		if err != nil {
			return err
		}
		dialUs = append(dialUs, s.us())
	}
	rep.set("netserve.ping_p50_us", median(pingUs))
	rep.set("netserve.overhead_p50_us", median(overheadUs))
	rep.set("netserve.dial_p50_us", median(dialUs))
	rep.set("serve.admit_p50_us", median(admitUs))
	queued := 0.0
	if admitted := after.Admitted - before.Admitted; admitted > 0 {
		queued = float64(after.Waited-before.Waited) / float64(admitted)
	}
	rep.set("serve.queued_share", queued)
	rep.set("serve.fallback_share", float64(direct)/float64(answered))
	return nil
}

// probeTable measures the table layer's append path on a scratch table:
// 256-row AppendRowsFrom, then the incremental skip-index refresh.
func (e *env) probeTable(tr *tracer, rep *report) {
	scratch := table.MustNew(visitsSchema())
	gen := newBatchGen(int(e.preload), e.o.seed^0x7ab1e)
	rows := make([]int, batchRows)
	for i := range rows {
		rows[i] = i
	}
	var appendUs, refreshUs []float64
	for k := 0; k < probeBatch; k++ {
		b := gen.next()
		var err error
		s := tr.timed(nil, "table", "AppendRowsFrom", func() { err = scratch.AppendRowsFrom(b, rows) })
		if err != nil {
			panic(err) // same schema on both sides
		}
		appendUs = append(appendUs, s.us())
		if k == 0 {
			if err := scratch.BuildSkipIndex(0); err != nil {
				panic(err) // scratch is a root table
			}
			continue
		}
		s = tr.timed(nil, "table", "RefreshSkipIndex", func() { scratch.RefreshSkipIndex() })
		refreshUs = append(refreshUs, s.us())
	}
	rep.set("table.skip_refresh_us_per_batch", median(refreshUs))
	rep.set("table.append_rows_per_s", batchRows/(median(appendUs)/1e6))
}

// probeInprocFresh runs the paced loop on an in-process plan.Streaming
// over a fresh copy of the workload's tables: the difference to the
// remote fresh latency is the wire and credit share.
func (e *env) probeInprocFresh(ctx context.Context, rep *report) (float64, error) {
	w := e.w
	w.remote, w.busyReads = false, false
	le, err := setup(ctx, w, e.o, nil)
	if err != nil {
		return 0, err
	}
	defer le.dep.close()
	ing := &ingestResult{}
	le.paced(ctx, nil, e.o.batches(w.pacedBatches, tracedShare*e.o.seconds), ing)
	le.verifySubs(ing)
	rep.count(ing.attempted, ing.failed, ing.err)
	return median(ing.freshMs), nil
}

// layersRows prints, per kind, where the traced ops' time went, as
// means in µs so that the parts sum: op = client_self + plan + call;
// call = boundary + program_wall; program_wall = Σ stage + unexplained.
// plan and call are harness spans (Session.Plan; Session.ExecPlan or
// Client.Query); program_wall and the stages are what the program
// reported; boundary is what crossing into the layer cost (wire, socket
// and admission bookkeeping on a remote workload).
func (e *env) layersRows(rep *report, loop *loopResult) {
	type acc struct {
		n                    int
		op, plan, call, wall float64
		stages               map[string]float64
	}
	var accs [numKinds]acc
	for _, recs := range loop.perClient {
		for j := range recs {
			r := &recs[j]
			a := &accs[opKind(r.i)]
			if a.stages == nil {
				a.stages = map[string]float64{}
			}
			a.n++
			a.op += r.ms * 1000
			a.plan += r.out.planUs
			a.call += r.out.callUs
			a.wall += float64(r.out.wall) / 1e3
			for _, st := range r.out.stages {
				a.stages[st.Stage.String()] += float64(st.Nanos) / 1e3
			}
		}
	}
	for k, name := range kinds {
		a := accs[k]
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		var names []string
		for s := range a.stages {
			names = append(names, s)
		}
		sort.Strings(names)
		var staged float64
		parts := ""
		for _, s := range names {
			staged += a.stages[s]
			parts += fmt.Sprintf(" stage.%s=%.1f", s, a.stages[s]/n)
		}
		rep.row("layers %s %-12s n=%d op=%.1f client_self=%.1f plan=%.1f call=%.1f boundary=%.1f program_wall=%.1f%s unexplained=%.1f",
			e.w.Name, name, a.n, a.op/n, (a.op-a.plan-a.call)/n, a.plan/n, a.call/n,
			(a.call-a.wall)/n, a.wall/n, parts, (a.wall-staged)/n)
	}
}
