package main

// One runner drives all four workloads: set up, compute the ExecDirect
// oracle, warm up with one untimed period, then a closed-loop query
// phase and the two ingest phases (paced, then flood bursts). On
// stream_append a second connection keeps reading snapshots of the
// growing primary while the ingest phases run.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// refSeconds is the run length the ingest batch counts below are sized
// for; other -seconds values scale them.
const refSeconds = 26

// queryShare of -seconds goes to the query phase on the workloads that
// run it before the ingest phases; the ingest phases are sized in
// batches, not time, so that the table every query sees grows along the
// same trajectory whatever the ingest speed.
const queryShare = 0.7

// freshTimeout is how long an appended batch may take to show in all
// four standing results before it counts as failed.
const freshTimeout = 10 * time.Second

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	visitsRows, rankRows int
	switches             int
	remote               bool
	conns, clients       int
	// busyReads keeps the query connection reading snapshots of the
	// growing primary (TOP N and the date-range filter) while the ingest
	// phases run: writes beside reads.
	busyReads bool
	// pacedBatches sizes the paced phase and bursts × burstBatches the
	// flood, at refSeconds.
	pacedBatches, bursts, burstBatches int
}

var workloads = []workload{
	{
		Name:       "local_scan",
		Why:        "the paper's experiment: one in-process session, one switch, 317000-row scans, so per-entry engine work dominates and wire/netserve/serve are idle",
		visitsRows: 317_000, rankRows: 180_000, switches: 1, clients: 1,
		pacedBatches: 2500, bursts: 11, burstBatches: 192,
	},
	{
		Name:       "local_sharded",
		Why:        "same tables and ops scattered over two switches, so the master's two-level merge, zero on local_scan, is on the path",
		visitsRows: 317_000, rankRows: 180_000, switches: 2, clients: 1,
		pacedBatches: 2500, bursts: 11, burstBatches: 192,
	},
	{
		Name:       "remote_small",
		Why:        "8192-row tables behind a loopback server with two connections, so fixed per-query costs (wire codec, socket, admission, planning) dominate and the engine does little",
		visitsRows: 8_192, rankRows: 4_096, switches: 2, remote: true, conns: 2, clients: 2,
		pacedBatches: 900, bursts: 8, burstBatches: 192,
	},
	{
		Name:       "stream_append",
		Why:        "appends and four standing subscriptions on one connection beside snapshot reads on another, so a gain for ingest that costs queries (or the reverse) shows in one run",
		visitsRows: 65_536, rankRows: 32_768, switches: 2, remote: true, conns: 2, clients: 1,
		busyReads: true, pacedBatches: 700, bursts: 6, burstBatches: 128,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// scale divides table sizes and ingest batch counts (smoke runs).
	scale int
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	outDir string
}

func (o options) scaled(n, min int) int {
	if n /= o.scale; n < min {
		return min
	}
	return n
}

// batches scales an ingest batch count, sized for refSeconds, to a
// phase that gets seconds of the run, and by -scale.
func (o options) batches(n int, seconds float64) int {
	return o.scaled(int(float64(n)*seconds/refSeconds), 4)
}

// env is one set-up workload: tables, op stream, deployment.
type env struct {
	w       workload
	o       options
	primary *table.Table
	rank    *table.Table
	ops     *opStream
	subQ    [numSubs]*engine.Query
	gen     *batchGen
	dep     deployment
	gauge   *gauge // machine-speed readings between ops; nil reads nothing
	preload uint64
	// acked is the last append version the server acknowledged: the
	// lower bound of the snapshot a concurrent query can see.
	acked atomic.Uint64
	// ingesting is set before the first append is sent: from then on an
	// answer may have seen a batch the server has not acknowledged yet.
	ingesting atomic.Bool
}

// setup generates the tables and brings the deployment up: plan.Open
// (skip-index build), Serve/Listen/Dial, Stream, the four subscriptions
// and their catch-up over the preload. Its wall time is setup_s.
func setup(ctx context.Context, w workload, o options, tr *tracer) (*env, error) {
	e := &env{w: w, o: o}
	vRows := o.scaled(w.visitsRows, 2*batchRows)
	tr.timed(nil, "harness", "generate", func() {
		e.primary = genVisits(vRows, o.seed)
		e.rank = genRankings(o.scaled(w.rankRows, batchRows), o.seed)
	})
	if tr != nil {
		// The traced pass builds the skip index itself so the build has
		// its own span; plan.Open then finds it and builds nothing.
		var err error
		tr.timed(nil, "table", "BuildSkipIndex", func() { err = e.primary.BuildSkipIndex(0) })
		if err != nil {
			return nil, err
		}
	}
	e.ops = genOps(e.primary, e.rank, o.seed)
	for i, k := range subKinds {
		e.subQ[i] = e.ops[k]
	}
	e.gen = newBatchGen(vRows, o.seed)
	e.preload = uint64(vRows)
	e.acked.Store(e.preload)

	var err error
	if w.remote {
		e.dep, err = openRemote(ctx, tr, e, w.conns, w.clients, true)
	} else {
		e.dep, err = openLocal(ctx, tr, e)
	}
	if err != nil {
		return nil, err
	}
	wctx, cancel := context.WithTimeout(ctx, 6*freshTimeout)
	defer cancel()
	s := tr.begin(nil, "stream", "subscribe.catchup")
	_, err = e.dep.covered().wait(wctx, e.preload)
	tr.end(s, nil)
	if err != nil {
		e.dep.close()
		return nil, err
	}
	return e, nil
}

// oracle holds the ExecDirect answer of every op of the stream, one
// execution per distinct spec, computed outside every timed window.
type oracle struct {
	res [period]*engine.Result
	// directMs are the ExecDirect wall times per kind, one per distinct
	// spec: the denominator of engine.direct_ratio.
	directMs [numKinds][]float64
	seconds  float64
}

func variesByVariant(k int) bool { return k == opFilter || k == opFilterRange || k == opTopN }

func computeOracle(ops *opStream) (*oracle, error) {
	t0 := time.Now()
	or := &oracle{}
	for i, q := range ops {
		k := opKind(i)
		if i >= numKinds && !variesByVariant(k) {
			or.res[i] = or.res[k]
			continue
		}
		t1 := time.Now()
		res, err := engine.ExecDirect(q)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", kinds[k], err)
		}
		or.directMs[k] = append(or.directMs[k], msSince(t1))
		or.res[i] = res
	}
	or.seconds = time.Since(t0).Seconds()
	return or, nil
}

func sameResult(got, want *engine.Result) bool {
	if len(got.Columns) != len(want.Columns) {
		return false
	}
	for i := range got.Columns {
		if got.Columns[i] != want.Columns[i] {
			return false
		}
	}
	return got.Equal(want)
}

// opRec is one measured op. A failed op (error or answer ≠ oracle) has
// no record: it counts in failed and contributes no latency.
type opRec struct {
	i      int
	p      int     // which of its client's periods the op belongs to
	ms     float64 // client-observed latency
	out    opOut   // rows dropped once verified
	vLo    uint64  // acked version before the op was sent ...
	vHi    uint64  // ... and after its answer arrived
	verify bool    // answer still to be checked against a prefix oracle
}

type loopResult struct {
	perClient [][]opRec
	periodOps int // ops in one period of the loop
	attempted int
	failed    int
	err       error // first failure, for the report
}

func (r *loopResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// latencies gathers the client-observed latencies per kind, client by
// client in measurement order.
func (r *loopResult) latencies() [numKinds][]float64 {
	var out [numKinds][]float64
	for _, recs := range r.perClient {
		for _, rec := range recs {
			k := opKind(rec.i)
			out[k] = append(out[k], rec.ms)
		}
	}
	return out
}

// queriesPerSec is the median over blocks of the clients' summed rates.
// A block is a run of whole periods: every period holds every op of the
// loop once, so blocks do not differ in their mix of kinds (a JOIN takes
// several hundred range filters' time, and blocks cut by op count moved
// by a third with how many JOINs fell into each). A period the stop
// signal or a failed op cut short is left out. A client's rate is ops ÷
// time spent inside ops: the harness's own checking between ops is not
// the program's time.
func (r *loopResult) queriesPerSec() (float64, []float64) {
	perClient := make([][]float64, len(r.perClient)) // op time of each whole period
	nb := numBlocks
	for c, recs := range r.perClient {
		for j := 0; j < len(recs); {
			k, sum := j, 0.0
			for ; k < len(recs) && recs[k].p == recs[j].p; k++ {
				sum += recs[k].ms
			}
			if k-j == r.periodOps {
				perClient[c] = append(perClient[c], sum)
			}
			j = k
		}
		nb = min(nb, len(perClient[c]))
	}
	if nb == 0 {
		return 0, nil
	}
	rates := make([]float64, nb)
	for _, periodMs := range perClient {
		for b, blk := range blocks(periodMs, nb) {
			var sum float64
			for _, x := range blk {
				sum += x
			}
			rates[b] += float64(len(blk)*r.periodOps) / (sum / 1000)
		}
	}
	return median(rates), rates
}

// allOps is one period of the op stream; snapshotOps are the ops a
// busy-reads connection cycles through.
var allOps, snapshotOps = func() (all, snap []int) {
	for i := 0; i < period; i++ {
		all = append(all, i)
		if k := opKind(i); k == opTopN || k == opFilterRange {
			snap = append(snap, i)
		}
	}
	return all, snap
}()

// queryLoop runs the closed loop: every client walks ops one period at
// a time, each period in an order of its own drawn from the seed (every
// spec still comes up once per period, but which ops of two clients
// meet, and which op pays for its predecessor's garbage, is not frozen
// into the numbers), and sends its next op only when the previous answer
// arrived. With turns set the clients take turns, one period each, so
// every op is timed with the other connections idle. A client stops
// after periods periods (0 = no limit) or once stop is closed.
func (e *env) queryLoop(ctx context.Context, tr *tracer, or *oracle, ops []int, periods int, turns bool, stop <-chan struct{}) *loopResult {
	n := e.w.clients
	res := &loopResult{perClient: make([][]opRec, n), periodOps: len(ops)}
	gates := make([]chan struct{}, n) // cap 1: the token never blocks its sender
	for c := range gates {
		gates[c] = make(chan struct{}, 1)
	}
	if turns {
		gates[0] <- struct{}{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(e.o.seed)<<8 | int64(c)))
			var recs []opRec
			attempted := 0
		loop:
			for p := 0; periods == 0 || p < periods; p++ {
				if turns {
					select {
					case <-gates[c]:
					case <-stop:
						break loop
					}
				}
				// The machine is gauged between periods, by one client and
				// only where no other loop or ingest runs beside it.
				if c == 0 && (n == 1 || turns) && !e.ingesting.Load() {
					e.gauge.tick()
				}
				for _, j := range rng.Perm(len(ops)) {
					i := ops[j]
					select {
					case <-stop:
						break loop
					default:
					}
					rec, err := e.oneOp(ctx, tr, or, c, i)
					attempted++
					if err != nil {
						mu.Lock()
						res.fail(err)
						mu.Unlock()
						continue
					}
					rec.p = p
					recs = append(recs, rec)
				}
				if turns {
					gates[(c+1)%n] <- struct{}{}
				}
			}
			mu.Lock()
			res.perClient[c] = recs
			res.attempted += attempted
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res
}

// oneOp times one op and checks its answer. TOP N over the growing
// primary cannot be checked against the static oracle once appends have
// begun; its rows are kept for verifySnapshotReads.
func (e *env) oneOp(ctx context.Context, tr *tracer, or *oracle, c, i int) (opRec, error) {
	k := opKind(i)
	rec := opRec{i: i, vLo: e.acked.Load()}
	root := tr.begin(nil, "client", "op."+kinds[k])
	t0 := time.Now()
	out, err := e.dep.query(ctx, tr, root, c, i)
	rec.ms = msSince(t0)
	if tr != nil {
		tr.end(root, map[string]int64{"op": int64(i), "client": int64(c)})
	}
	if err != nil {
		return rec, fmt.Errorf("%s: %w", kinds[k], err)
	}
	rec.vHi = e.acked.Load()
	rec.out = out
	if k == opTopN && e.ingesting.Load() {
		rec.verify = true
		return rec, nil
	}
	if !sameResult(&out.res, or.res[i]) {
		return rec, fmt.Errorf("%s: answer differs from ExecDirect (%d rows, want %d)", kinds[k], len(out.res.Rows), len(or.res[i].Rows))
	}
	rec.out.res = engine.Result{}
	return rec, nil
}

// maxSnapshotChecks bounds how many concurrent TOP N answers are checked
// against prefix oracles: each check costs an ExecDirect per candidate
// version.
const maxSnapshotChecks = 48

// verifySnapshotReads checks a fixed-stride sample of the TOP N answers
// taken while the primary grew: an answer is right when it equals
// ExecDirect over the committed prefix at some version its snapshot can
// have had — from the version acknowledged before the op was sent to
// one batch past the version acknowledged after its answer arrived.
func (e *env) verifySnapshotReads(res *loopResult) error {
	var pending []*opRec
	for _, recs := range res.perClient {
		for j := range recs {
			if recs[j].verify {
				pending = append(pending, &recs[j])
			}
		}
	}
	if len(pending) == 0 {
		return nil
	}
	snap, ver, err := e.dep.snapshot()
	if err != nil {
		return err
	}
	stride := (len(pending) + maxSnapshotChecks - 1) / maxSnapshotChecks
	for j, rec := range pending {
		if j%stride == 0 {
			ok := false
			for v := rec.vLo; v <= rec.vHi+batchRows && v <= ver && !ok; v += batchRows {
				prefix, err := snap.SnapshotPrefix(int(v))
				if err != nil {
					return err
				}
				q := *e.ops[rec.i]
				q.Table = prefix
				want, err := engine.ExecDirect(&q)
				if err != nil {
					return err
				}
				ok = sameResult(&rec.out.res, want)
			}
			if !ok {
				res.fail(fmt.Errorf("topn: snapshot answer matches no committed version in [%d,%d]", rec.vLo, rec.vHi+batchRows))
			}
		}
		rec.out.res = engine.Result{}
	}
	return nil
}

// subCheck is one subscription's standing result captured at a phase
// end, verified after the run against ExecDirect over the table as
// committed then.
type subCheck struct {
	sub  int
	res  *engine.Result
	ver  uint64
	snap *table.Table
	want uint64
}

type ingestResult struct {
	freshMs    []float64
	subFreshMs [numSubs][]float64
	ackUs      []float64
	burstRates []float64 // rows/s per flood burst
	floodRows  int
	floodS     float64 // Σ over bursts of first append → full coverage
	// updatesPerBatch is the flood's updates received per subscription
	// per batch appended: below 1 the server coalesced.
	updatesPerBatch float64
	batches         int // appended and acknowledged
	checks          []subCheck
	attempted       int
	failed          int
	err             error
}

// rowsPerSec is the flood's rate. Single bursts swing by a factor of
// five in process — a burst lasts 15 ms, and some of them pay for a GC
// cycle over the tables or for the table's columns growing — so the rate
// is taken over all of them, not as a median of theirs.
func (r *ingestResult) rowsPerSec() float64 {
	if r.floodS == 0 {
		return 0
	}
	return float64(r.floodRows) / r.floodS
}

func (r *ingestResult) fail(err error) {
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

// timedAppend appends one batch inside spans and publishes the
// acknowledged version.
func (e *env) timedAppend(ctx context.Context, tr *tracer, parent *span, b *table.Table) (uint64, error) {
	s := tr.begin(parent, "stream", "append")
	v, err := e.dep.appendBatch(ctx, b)
	if tr != nil {
		tr.end(s, map[string]int64{"version": int64(v), "rows": batchRows})
	}
	if err == nil {
		e.acked.Store(v)
	}
	return v, err
}

// paced appends n batches one at a time: append, wait until all four
// subscriptions cover the returned version, repeat. fresh is Append
// call → last subscription covered.
func (e *env) paced(ctx context.Context, tr *tracer, n int, r *ingestResult) {
	for k := 0; k < n; k++ {
		e.gauge.tick()
		b := e.gen.next()
		r.attempted++
		root := tr.begin(nil, "client", "paced.batch")
		t0 := time.Now()
		v, err := e.timedAppend(ctx, tr, root, b)
		ack := usSince(t0)
		if err != nil {
			tr.end(root, nil)
			r.fail(fmt.Errorf("append: %w", err))
			return
		}
		wctx, cancel := context.WithTimeout(ctx, freshTimeout)
		ws := tr.begin(root, "stream", "await.fresh")
		at, err := e.dep.covered().wait(wctx, v)
		tr.end(ws, nil)
		cancel()
		tr.end(root, nil)
		if err != nil {
			r.fail(err)
			return
		}
		var last time.Duration
		for i, t := range at {
			d := t.Sub(t0)
			r.subFreshMs[i] = append(r.subFreshMs[i], float64(d)/1e6)
			if d > last {
				last = d
			}
		}
		r.batches++
		r.ackUs = append(r.ackUs, ack)
		r.freshMs = append(r.freshMs, float64(last)/1e6)
	}
	e.capture(r)
}

// flood appends bursts of n batches back to back, then waits until the
// subscriptions cover the last one; the flood's rate is its rows over
// the bursts' summed time to full coverage. Bursts only bound memory:
// batches are generated between them, outside the timed windows.
func (e *env) flood(ctx context.Context, tr *tracer, bursts, n int, r *ingestResult) {
	updates0, appended := e.dep.covered().updateCount(), 0
	for burst := 0; burst < bursts; burst++ {
		batch := make([]*table.Table, n)
		for k := range batch {
			batch[k] = e.gen.next()
		}
		r.attempted += n
		// Every burst starts from a collected heap: a burst lasts tens of
		// milliseconds, and whether a GC cycle over the tables (and over
		// the garbage of generating the batches, which is the harness's)
		// fell into it moved the rate by a third between identical runs.
		runtime.GC()
		e.gauge.tick()
		root := tr.begin(nil, "client", "flood.burst")
		t0 := time.Now()
		var v uint64
		var err error
		for _, b := range batch {
			if v, err = e.timedAppend(ctx, tr, root, b); err != nil {
				break
			}
			appended++
		}
		if err == nil {
			wctx, cancel := context.WithTimeout(ctx, freshTimeout)
			ws := tr.begin(root, "stream", "await.fresh")
			_, err = e.dep.covered().wait(wctx, v)
			tr.end(ws, nil)
			cancel()
		}
		tr.end(root, nil)
		if err != nil {
			r.fail(err)
			return
		}
		took := time.Since(t0).Seconds()
		r.burstRates = append(r.burstRates, float64(n*batchRows)/took)
		r.floodRows += n * batchRows
		r.floodS += took
	}
	r.batches += appended
	if appended > 0 {
		r.updatesPerBatch = float64(e.dep.covered().updateCount()-updates0) / float64(numSubs*appended)
	}
	e.capture(r)
}

// capture records every subscription's standing result and the
// committed table at a phase end (cheap: results are immutable, the
// snapshot shares row data); verifySubs checks them after the run.
func (e *env) capture(r *ingestResult) {
	snap, ver, err := e.dep.snapshot()
	if err != nil {
		r.fail(err)
		return
	}
	for i := 0; i < numSubs; i++ {
		res, v := e.dep.standing(i)
		r.checks = append(r.checks, subCheck{sub: i, res: res, ver: v, snap: snap, want: ver})
	}
}

func (e *env) verifySubs(r *ingestResult) {
	for _, c := range r.checks {
		r.attempted++
		name := kinds[subKinds[c.sub]]
		if c.res == nil || c.ver != c.want {
			r.fail(fmt.Errorf("subscription %s covers version %d, committed %d", name, c.ver, c.want))
			continue
		}
		q := *e.subQ[c.sub]
		q.Table = c.snap
		want, err := engine.ExecDirect(&q)
		if err != nil {
			r.fail(err)
			continue
		}
		if !sameResult(c.res, want) {
			r.fail(fmt.Errorf("subscription %s: standing result differs from ExecDirect at version %d", name, c.want))
		}
	}
}

// measured is everything one pass measured, before it is turned into
// metrics.
type measured struct {
	gauge    *gauge
	setupS   []float64
	or       *oracle
	calibMs  [2]float64
	gcPauseS float64
}

// phases is what one run of the query and ingest phases measured. lat
// is the loop the per-kind latencies come from, tput the one
// queries_per_s comes from; with one query client they are the same
// loop. busy holds the snapshot reads a busy-reads workload made beside
// its ingest phases.
type phases struct {
	lat, tput, busy *loopResult
	ing             *ingestResult
}

// loops are the distinct loops that ran.
func (p *phases) loops() []*loopResult {
	ls := []*loopResult{p.lat}
	if p.tput != p.lat {
		ls = append(ls, p.tput)
	}
	if p.busy != nil {
		ls = append(ls, p.busy)
	}
	return ls
}

// count adds the phases' ops and failures to the report.
func (p *phases) count(rep *report) {
	for _, l := range p.loops() {
		rep.count(l.attempted, l.failed, l.err)
	}
	rep.count(p.ing.attempted, p.ing.failed, p.ing.err)
}

// turnsShare of the query phase goes to the clients taking turns when
// there are several: per-kind latency is measured unloaded, one
// connection at a time, and queries_per_s saturated, all connections at
// once. Two closed loops on two CPUs keep both busy, and a latency
// measured there is mostly waiting for a CPU: it moved by a quarter
// between identical runs.
const turnsShare = 0.6

// runPhases runs the query phase and, with ingest set, the ingest
// phases, sized for the given share of -seconds. The query phase comes
// first: local queries read the primary table in place, so nothing may
// be appended before the last of them is answered.
func (e *env) runPhases(ctx context.Context, tr *tracer, or *oracle, seconds float64, ingest bool) *phases {
	ph := &phases{ing: &ingestResult{}}
	timed := func(share float64, turns bool) *loopResult {
		stop := make(chan struct{})
		d := time.Duration(seconds * queryShare * share * float64(time.Second))
		timer := time.AfterFunc(d, func() { close(stop) })
		defer timer.Stop()
		return e.queryLoop(ctx, tr, or, allOps, 0, turns, stop)
	}
	if e.w.clients > 1 {
		ph.lat = timed(turnsShare, true)
		ph.tput = timed(1-turnsShare, false)
	} else {
		ph.lat = timed(1, false)
		ph.tput = ph.lat
	}
	if !ingest {
		return ph
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	if e.w.busyReads {
		go func() {
			defer close(done)
			ph.busy = e.queryLoop(ctx, tr, or, snapshotOps, 0, false, stop)
		}()
	} else {
		close(done)
	}
	e.ingesting.Store(true)
	e.paced(ctx, tr, e.o.batches(e.w.pacedBatches, seconds), ph.ing)
	if ph.ing.failed == 0 {
		e.flood(ctx, tr, e.w.bursts, e.o.batches(e.w.burstBatches, seconds), ph.ing)
	}
	close(stop)
	<-done
	return ph
}

func gcPauseSeconds() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.PauseTotalNs) / 1e9
}

// run executes one pass of one workload and returns its report.
func run(ctx context.Context, w workload, o options) (*report, error) {
	if o.scale < 1 || o.seconds <= 0 || o.setups < 1 {
		return nil, errors.New("scale, seconds and setups must be positive")
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
		o.setups = 1 // setup_s is an end-to-end metric; the traced pass sets up once
	}
	m := &measured{}
	m.calibMs[0] = calibrate()
	if !o.trace {
		m.gauge = newGauge()
	}

	var e *env
	var total float64
	// Small set-ups are over in milliseconds: repeat them until a second
	// and a half is spent (less on a scaled-down smoke run), so their
	// median is as steady as a large one's.
	for i := 0; i < o.setups || (!o.trace && total < 1.5/float64(o.scale) && i < 40*o.setups); i++ {
		if e != nil {
			e.dep.close()
			e = nil
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		m.gauge.tick()
		t0 := time.Now()
		var err error
		if e, err = setup(ctx, w, o, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		total += m.setupS[i]
	}
	defer func() { e.dep.close() }()
	e.gauge = m.gauge

	var err error
	if m.or, err = computeOracle(e.ops); err != nil {
		return nil, err
	}
	// Warm-up: one full period per client, untimed but checked.
	if warm := e.queryLoop(ctx, nil, m.or, allOps, 1, false, nil); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	runtime.GC()

	rep := newReport(w, o)
	if o.trace {
		err = e.tracedPass(ctx, tr, m, rep)
	} else {
		err = e.untracedPass(ctx, m, rep)
	}
	if err != nil {
		return nil, err
	}
	return rep, rep.finish()
}

// untracedPass yields the end-to-end metrics: shipped defaults, harness
// spans off.
func (e *env) untracedPass(ctx context.Context, m *measured, rep *report) error {
	pause0 := gcPauseSeconds()
	ph := e.runPhases(ctx, nil, m.or, e.o.seconds, true)
	m.gcPauseS = gcPauseSeconds() - pause0
	m.calibMs[1] = calibrate()
	for _, l := range ph.loops() {
		if err := e.verifySnapshotReads(l); err != nil {
			return err
		}
	}
	e.verifySubs(ph.ing)
	ph.count(rep)

	// Times are reported as at the gauge's reference speed; what the clock
	// read is printed beside them as raw.* info lines.
	f, gaugeMs, gaugeN := m.gauge.factor()
	raw := map[string]float64{}
	timeMetric := func(name string, v float64) { raw[name] = v; rep.set(name, v*f) }
	rateMetric := func(name string, v float64) { raw[name] = v; rep.set(name, v/f) }
	timeMetric("setup_s", median(m.setupS))
	qps, blockRates := ph.tput.queriesPerSec()
	rateMetric("queries_per_s", qps)
	lat := ph.lat.latencies()
	var logSum float64
	for k := range kinds {
		logSum += math.Log(median(lat[k]))
	}
	timeMetric("kinds_p50_geomean_ms", math.Exp(logSum/numKinds))
	for _, k := range gatedKinds {
		timeMetric(kinds[k]+"_p50_ms", median(lat[k]))
	}
	timeMetric("fresh_p50_ms", median(ph.ing.freshMs))
	rateMetric("ingest_rows_per_s", ph.ing.rowsPerSec())
	rep.set("peak_rss_mb", peakRSSMB())

	rep.info("machine_factor", f, "ratio")
	rep.info("gauge_ms", gaugeMs, "ms")
	rep.info("gauge_readings", float64(gaugeN), "count")
	for _, d := range endToEnd {
		if v, ok := raw[d.Name]; ok {
			rep.info("raw."+d.Name, v, d.Unit)
		}
	}
	rep.info("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	rep.info("setup_spread", spread(m.setupS), "ratio")
	rep.info("oracle_s", m.or.seconds, "s")
	rep.info("calib_before_ms", m.calibMs[0], "ms")
	rep.info("calib_after_ms", m.calibMs[1], "ms")
	rep.info("gc_pause_ms", m.gcPauseS*1000, "ms")
	rep.info("block_spread", spread(blockRates), "ratio")
	rep.info("paced_batches", float64(len(ph.ing.freshMs)), "count")
	rep.info("burst_spread", spread(ph.ing.burstRates), "ratio")
	busyInfo(rep, ph.busy)
	hi := hiPercentile(len(lat[0]))
	rep.info("client.hi_pct", hi, "%")
	rep.info("client.samples_per_kind", float64(len(lat[0])), "count")
	for k, name := range kinds {
		rep.info("client.p50_ms."+name, median(lat[k]), "ms")
		rep.info("client.hi_ms."+name, percentile(lat[k], hi), "ms")
	}
	return nil
}

// busyInfo prints what the snapshot reads beside the ingest phases cost:
// not gated — they move with how far the ingest got — but the place
// where a gain for ingest that costs reads, or the reverse, shows.
func busyInfo(rep *report, busy *loopResult) {
	if busy == nil {
		return
	}
	lat := busy.latencies()
	qps, _ := busy.queriesPerSec()
	rep.info("busy.reads_per_s", qps, "1/s")
	rep.info("busy.topn_p50_ms", median(lat[opTopN]), "ms")
	rep.info("busy.filter_range_p50_ms", median(lat[opFilterRange]), "ms")
}
