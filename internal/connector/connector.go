// Package connector is the fabric's external I/O runtime: Sources pump
// rows from outside readers into the streaming ingestor (batched, with
// backpressure mapped onto the ingestor's Block/Shed policies), and
// Sinks fan continuous-query results out of subscriptions. OpenSource and
// OpenSink build the built-in connectors from spec strings, so cheetahd
// can wire a topology from flags ("gen:rows=1000,rate=500" → the
// generator source feeding the served table).
//
// The shape follows the stream-processor connector idiom, kept
// deliberately tiny: a Source is a batch iterator, a Sink is a result
// consumer, and the Runtime owns the goroutines between them and the
// session's streaming handle.
package connector

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/plan"
	"cheetah/internal/stream"
	"cheetah/internal/table"
)

// Source produces row batches for the streamed table. ReadBatch blocks
// until a batch is ready, returning io.EOF when the source is drained.
// Close releases external resources; it may be called concurrently
// with ReadBatch to interrupt it.
type Source interface {
	// ReadBatch returns the next batch with the given schema. A nil
	// batch with nil error means "nothing right now, call again".
	ReadBatch(ctx context.Context, schema table.Schema) (*table.Table, error)
	Close() error
}

// Sink consumes standing-result refreshes from a subscription. Write
// is called sequentially per subscription.
type Sink interface {
	// Write delivers the standing result covering the given committed
	// version.
	Write(version uint64, res *engine.Result) error
	Close() error
}

// ParseSpec splits a "name:key=val,key=val" connector spec.
func ParseSpec(spec string) (name string, args map[string]string, err error) {
	name, rest, _ := strings.Cut(spec, ":")
	if name == "" {
		return "", nil, fmt.Errorf("connector: empty spec")
	}
	args = make(map[string]string)
	if rest == "" {
		return name, args, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return "", nil, fmt.Errorf("connector: malformed argument %q in spec %q", kv, spec)
		}
		args[k] = v
	}
	return name, args, nil
}

// OpenSource builds the built-in source a spec names: "gen" (synthetic
// rows; args rows, batch, rate, seed) or "csv" (args path, batch, loop).
func OpenSource(spec string) (Source, error) {
	name, args, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case "gen":
		return newGenSource(args)
	case "csv":
		return newCSVSource(args)
	}
	return nil, fmt.Errorf("connector: unknown source %q (have csv, gen)", name)
}

// OpenSink builds the built-in sink a spec names: "log" (args path, "-" =
// stdout, and tag) or "null".
func OpenSink(spec string) (Sink, error) {
	name, args, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	switch name {
	case "log":
		return newLogSink(args)
	case "null":
		return nullSink{}, nil
	}
	return nil, fmt.Errorf("connector: unknown sink %q (have log, null)", name)
}

// Runtime owns the pump goroutines between connectors and one
// streaming handle.
type Runtime struct {
	strm *plan.Streaming

	mu     sync.Mutex
	closed bool
	cancel []context.CancelFunc
	wg     sync.WaitGroup

	feedErrMu sync.Mutex
	feedErr   error
}

// NewRuntime wires a runtime over the session's streaming handle.
func NewRuntime(strm *plan.Streaming) (*Runtime, error) {
	if strm == nil {
		return nil, fmt.Errorf("connector: runtime needs a streaming handle")
	}
	return &Runtime{strm: strm}, nil
}

// Feed starts pumping src into the streamed table: each ReadBatch
// commits through AppendBatch, so the ingestor's backpressure policy
// applies — Block stalls the pump (and transitively the source's
// producer), Shed drops the batch and the pump retries it after a
// backoff. The pump stops at io.EOF, on ctx cancellation, or when the
// runtime closes; the source is closed when the pump exits.
func (rt *Runtime) Feed(ctx context.Context, src Source) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return fmt.Errorf("connector: runtime is closed")
	}
	ctx, cancel := context.WithCancel(ctx)
	rt.cancel = append(rt.cancel, cancel)
	rt.wg.Add(1)
	rt.mu.Unlock()
	schema := rt.strm.Session().Table().Schema()
	go func() {
		defer rt.wg.Done()
		defer src.Close()
		for {
			batch, err := src.ReadBatch(ctx, schema)
			if err != nil {
				if !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
					rt.noteFeedErr(err)
				}
				return
			}
			if batch == nil || batch.NumRows() == 0 {
				continue
			}
			for {
				err := rt.strm.AppendBatch(batch)
				if err == nil {
					break
				}
				if errors.Is(err, stream.ErrBacklog) {
					// Shed policy: the ingestor refused the batch to
					// protect the slowest subscription. Back off and
					// retry — the connector absorbs the burst.
					select {
					case <-ctx.Done():
						return
					case <-time.After(time.Millisecond):
					}
					continue
				}
				if ctx.Err() == nil {
					rt.noteFeedErr(err)
				}
				return
			}
		}
	}()
	return nil
}

func (rt *Runtime) noteFeedErr(err error) {
	rt.feedErrMu.Lock()
	if rt.feedErr == nil {
		rt.feedErr = err
	}
	rt.feedErrMu.Unlock()
}

// Err returns the first terminal feed error, if any.
func (rt *Runtime) Err() error {
	rt.feedErrMu.Lock()
	defer rt.feedErrMu.Unlock()
	return rt.feedErr
}

// Pipe subscribes q as a continuous query and fans its standing-result
// refreshes into sink, one Write per update (latest wins under lag, the
// subscription channel's own contract). The subscription closes when
// ctx cancels or the runtime closes; the sink is closed when the
// forwarder exits.
func (rt *Runtime) Pipe(ctx context.Context, q *engine.Query, sink Sink) (*plan.Subscription, error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil, fmt.Errorf("connector: runtime is closed")
	}
	rt.mu.Unlock()
	sub, err := rt.strm.Subscribe(ctx, q)
	if err != nil {
		return nil, err
	}
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		sub.Close()
		return nil, fmt.Errorf("connector: runtime is closed")
	}
	ctx, cancel := context.WithCancel(ctx)
	rt.cancel = append(rt.cancel, cancel)
	rt.wg.Add(1)
	rt.mu.Unlock()
	go func() {
		defer rt.wg.Done()
		defer sink.Close()
		defer sub.Close()
		for {
			select {
			case <-ctx.Done():
				return
			case _, ok := <-sub.Updates():
				if !ok {
					return
				}
				res, ver := sub.Results()
				if res == nil {
					continue
				}
				if err := sink.Write(ver, res); err != nil {
					rt.noteFeedErr(err)
					return
				}
			}
		}
	}()
	return sub, nil
}

// Close stops every pump and forwarder and waits for them to exit.
// Sources and sinks close with their pumps. Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return
	}
	rt.closed = true
	cancels := rt.cancel
	rt.cancel = nil
	rt.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	rt.wg.Wait()
}

// atoiDefault parses an integer argument with a default.
func atoiDefault(args map[string]string, key string, def int) (int, error) {
	v, ok := args[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("connector: argument %s=%q is not an integer", key, v)
	}
	return n, nil
}
