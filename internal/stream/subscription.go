package stream

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// DeltaExec executes one fully-formed delta query (DeltaQuery: the delta
// table is already substituted in, and HAVING is rewritten to GROUP BY
// SUM) and returns its canonical result. The planning layer injects an
// executor that streams the delta through a held switch program; the
// default is exact direct execution. A delta's result is a function of
// its rows alone: the executor sees no standing state, and runs while
// Results keeps serving the previous delta's standing result.
// Subscription.Close must not be called from inside a DeltaExec.
type DeltaExec func(dq *engine.Query) (*engine.Result, error)

// SubOptions shapes one subscription.
type SubOptions struct {
	// Exec runs each delta; nil selects DirectExec.
	Exec DeltaExec
	// Window and Slide, when non-zero, make the subscription windowed
	// over row counts: the standing result covers the most recently
	// completed window of Window rows, advancing every Slide rows with
	// the oldest Slide rows retracted. Window == Slide is a tumbling
	// window. Window must be a positive multiple of Slide, and windowing
	// applies to the aggregate kinds (TOP N, GROUP BY MAX/SUM, HAVING).
	Window, Slide int
}

// Update is one subscription progress notification.
type Update struct {
	// Version is the committed row prefix the standing result now
	// covers (for windowed subscriptions: the rows processed; the
	// fired window may trail it).
	Version uint64
	// Rows is the delta size that produced this update.
	Rows int
}

// Subscription is one continuous query: a standing result kept
// incrementally fresh over the ingestor's append log. Results is
// polled; Updates streams progress notifications (latest wins).
type Subscription struct {
	in   *Ingestor
	q    *engine.Query
	exec DeltaExec

	// Unwindowed standing state, or the windowed pane machinery.
	m   merger
	win *windowState

	notify  chan struct{}
	done    chan struct{}
	pumpEnd chan struct{}
	updates chan Update

	// stateMu guards the merge state (m / win) and stateVer: step applies
	// a whole delta under one hold, after its executions, and Results
	// reads them.
	stateMu  sync.Mutex
	stateVer uint64

	// Guarded by in.mu: processed offset, terminal error, closed flag.
	processed uint64
	err       error
	subClosed bool

	// Guarded by resMu: the rendered standing result cache.
	resMu     sync.Mutex
	result    *engine.Result
	resultVer uint64
	dirty     bool

	closeOnce   sync.Once
	updatesOnce sync.Once
}

// windowState is the pane machinery of a windowed subscription: the
// current pane accumulates sub-deltas; completed panes keep their
// rendered partials; the fired window is the fold of the last
// Window/Slide panes — sliding retracts by dropping the oldest pane.
type windowState struct {
	window, slide int
	panes         int // window / slide
	cur           merger
	done          []*engine.Result
	firedHi       uint64 // end row of the last fired window (0 = none)
}

func newSubscription(in *Ingestor, q *engine.Query, opts SubOptions) (*Subscription, error) {
	s := &Subscription{
		in:      in,
		q:       q,
		exec:    opts.Exec,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		pumpEnd: make(chan struct{}),
		updates: make(chan Update, 1),
		dirty:   true,
	}
	if opts.Window != 0 || opts.Slide != 0 {
		if err := validateWindow(q, opts.Window, opts.Slide); err != nil {
			return nil, err
		}
		cur, err := paneMerger(q)
		if err != nil {
			return nil, err
		}
		s.win = &windowState{
			window: opts.Window,
			slide:  opts.Slide,
			panes:  opts.Window / opts.Slide,
			cur:    cur,
		}
	} else {
		m, err := newMerger(q)
		if err != nil {
			return nil, err
		}
		s.m = m
	}
	return s, nil
}

// validateWindow checks the window shape and the kind's windowability.
func validateWindow(q *engine.Query, window, slide int) error {
	if window <= 0 || slide <= 0 {
		return fmt.Errorf("stream: window %d / slide %d must both be positive", window, slide)
	}
	if window%slide != 0 {
		return fmt.Errorf("stream: window %d must be a multiple of slide %d (pane-aligned retraction)", window, slide)
	}
	if !q.Kind.Windowed() {
		return fmt.Errorf("stream: %v does not support windows (windowed variants cover the aggregate kinds)", q.Kind)
	}
	return nil
}

// start launches the background pump, the subscription's one driver.
func (s *Subscription) start() {
	go s.pump()
	s.wake() // catch up over the already-committed prefix
}

// wake nudges the pump (nonblocking; coalesces).
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

func (s *Subscription) pump() {
	defer close(s.pumpEnd)
	for {
		select {
		case <-s.done:
			return
		case <-s.notify:
		}
		for {
			n, err := s.step()
			if err != nil {
				// Terminal: fail() already deregistered the
				// subscription; closing updates unblocks receivers.
				s.updatesOnce.Do(func() { close(s.updates) })
				return
			}
			if n == 0 {
				break
			}
		}
	}
}

// step coalesces everything committed past the processed offset into
// one delta, runs it through the executor, folds the results into the
// merge state, then publishes the advance. The executions hold no lock
// Results takes: only the fold holds stateMu, once per delta.
func (s *Subscription) step() (int, error) {
	s.in.mu.Lock()
	if s.subClosed {
		s.in.mu.Unlock()
		return 0, ErrClosed
	}
	if s.err != nil {
		err := s.err
		s.in.mu.Unlock()
		return 0, err
	}
	lo, hi := s.processed, s.in.rows
	if lo == hi {
		s.in.mu.Unlock()
		return 0, nil
	}
	// Extend the skip index over the rows this delta covers before the
	// snapshot captures the index pointer (same amortization as
	// Ingestor.Snapshot). It costs O(rows appended), so commits and the
	// other subscriptions, which in.mu serializes it against, wait for
	// the new rows' summaries alone.
	s.in.t.RefreshSkipIndex()
	snap, err := s.in.t.SnapshotPrefix(int(hi))
	s.in.mu.Unlock()
	if err != nil {
		return 0, s.fail(err)
	}

	spans, err := s.execute(snap, lo, hi)
	if err == nil {
		s.stateMu.Lock()
		err = s.apply(spans, hi)
		s.stateMu.Unlock()
	}
	if err != nil {
		return 0, s.fail(err)
	}

	s.resMu.Lock()
	s.dirty = true
	s.resMu.Unlock()

	s.in.mu.Lock()
	s.processed = hi
	s.in.cond.Broadcast()
	s.in.mu.Unlock()

	s.publish(Update{Version: hi, Rows: int(hi - lo)})
	return int(hi - lo), nil
}

// span is one executed piece of a delta: the result of the rows up to
// hi.
type span struct {
	res *engine.Result
	hi  uint64
}

// execute runs rows [lo, hi) of the snapshot through the executor: as
// one delta, or for a windowed subscription as one delta per pane-aligned
// piece, since a pane's partial must not mix rows of two panes.
func (s *Subscription) execute(snap *table.Table, lo, hi uint64) ([]span, error) {
	var spans []span
	for a := lo; a < hi; {
		b := hi
		if s.win != nil {
			slide := uint64(s.win.slide)
			b = min(hi, a-a%slide+slide) // next pane boundary
		}
		delta, err := snap.View(int(a), int(b))
		if err != nil {
			return nil, err
		}
		res, err := s.execDelta(DeltaQuery(s.q, delta))
		if err != nil {
			return nil, err
		}
		spans = append(spans, span{res: res, hi: b})
		a = b
	}
	return spans, nil
}

// execDelta runs the executor on one delta with a panic turned into the
// delta's error, stack included: a panicking executor fails its own
// subscription (step's fail path), not the pump's process.
func (s *Subscription) execDelta(dq *engine.Query) (res *engine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("stream: delta exec panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return s.exec(dq)
}

// apply folds one delta's executed spans into the merge state and
// advances stateVer to hi. The caller holds stateMu, so Results sees the
// standing state before or after a whole delta, never between the panes
// of one.
func (s *Subscription) apply(spans []span, hi uint64) error {
	for _, sp := range spans {
		var err error
		if s.win != nil {
			err = s.win.absorb(s.q, sp)
		} else {
			err = s.m.absorb(sp.res)
		}
		if err != nil {
			return err
		}
	}
	s.stateVer = hi
	return nil
}

// absorb folds one pane-aligned span into the current pane; a span that
// completes the pane slides the window — the oldest pane's contribution
// is retracted by falling out of the fold.
func (w *windowState) absorb(q *engine.Query, sp span) error {
	if err := w.cur.absorb(sp.res); err != nil {
		return err
	}
	if sp.hi%uint64(w.slide) != 0 {
		return nil
	}
	// Pane complete: freeze its partial, slide the window.
	w.done = append(w.done, w.cur.snapshot())
	if len(w.done) > w.panes {
		w.done = w.done[1:]
	}
	w.firedHi = sp.hi
	cur, err := paneMerger(q)
	if err != nil {
		return err
	}
	w.cur = cur
	return nil
}

// fired folds the completed panes into the current window's result; an
// unfired window renders the query's empty result.
func (w *windowState) fired(q *engine.Query) *engine.Result {
	fm, err := newMerger(q)
	if err != nil {
		// newMerger already succeeded for this query at subscribe time.
		panic(err)
	}
	for _, pane := range w.done {
		if err := fm.absorb(pane); err != nil {
			panic(fmt.Sprintf("stream: window fold over own pane snapshot: %v", err))
		}
	}
	return fm.snapshot()
}

// WindowBounds returns the committed row range [lo, hi) the last fired
// window covers (0, 0 before the first pane completes).
func (s *Subscription) WindowBounds() (lo, hi uint64) {
	if s.win == nil {
		return 0, 0
	}
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	w := s.win
	if w.firedHi == 0 {
		return 0, 0
	}
	return w.firedHi - uint64(len(w.done)*w.slide), w.firedHi
}

// Window returns the subscription's window shape (0, 0 when
// unwindowed).
func (s *Subscription) Window() (window, slide int) {
	if s.win == nil {
		return 0, 0
	}
	return s.win.window, s.win.slide
}

// fail records a terminal execution error: the standing result freezes
// at its last consistent state, and the subscription leaves the
// ingestor's backlog accounting — a wedged continuous query must not
// block (or shed) every future append forever.
func (s *Subscription) fail(err error) error {
	s.in.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	delete(s.in.subs, s)
	s.in.cond.Broadcast()
	s.in.mu.Unlock()
	return err
}

// publish pushes an update with latest-wins semantics: a slow receiver
// never blocks the pump, it just skips intermediate versions.
func (s *Subscription) publish(u Update) {
	for {
		select {
		case s.updates <- u:
			return
		default:
			select {
			case <-s.updates:
			default:
			}
		}
	}
}

// Results returns the standing result and the version (committed row
// prefix) it covers. For windowed subscriptions the result is the last
// fired window and the version its end row. The result is immutable.
func (s *Subscription) Results() (*engine.Result, uint64) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if s.dirty {
		s.stateMu.Lock()
		if s.win != nil {
			s.result = s.win.fired(s.q)
			s.resultVer = s.win.firedHi
		} else {
			s.result = s.m.snapshot()
			s.resultVer = s.stateVer
		}
		s.stateMu.Unlock()
		s.dirty = false
	}
	return s.result, s.resultVer
}

// Updates returns the progress channel. It carries the latest
// unconsumed advance (older ones are dropped) and is closed when the
// subscription closes.
func (s *Subscription) Updates() <-chan Update { return s.updates }

// Err returns the subscription's terminal execution error, if any.
func (s *Subscription) Err() error {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.err
}

// Query returns the subscribed query.
func (s *Subscription) Query() *engine.Query { return s.q }

// Version returns the committed row prefix the merge state has
// processed.
func (s *Subscription) Version() uint64 {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.processed
}

// Wait blocks until the subscription has processed at least version
// rows (ErrClosed if it closes first, the terminal error if it fails,
// ctx errors propagate).
func (s *Subscription) Wait(ctx context.Context, version uint64) error {
	return s.in.waitVersion(ctx, s, version)
}

// Flush waits until every row committed before the call is reflected
// in the standing result.
func (s *Subscription) Flush(ctx context.Context) error {
	return s.Wait(ctx, s.in.Version())
}

// Close deregisters the subscription, stops its pump (draining the
// delta in flight) and closes the updates channel. Idempotent.
func (s *Subscription) Close() {
	s.closeOnce.Do(func() {
		s.in.mu.Lock()
		s.subClosed = true
		delete(s.in.subs, s)
		s.in.cond.Broadcast()
		s.in.mu.Unlock()
		close(s.done)
		<-s.pumpEnd
		s.updatesOnce.Do(func() { close(s.updates) })
	})
}
