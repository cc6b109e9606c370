package bench

// The net target measures the network front door end to end: a closed
// loop of simulated client connections churns against a cheetahd server
// — dial, handshake, a few mixed-kind queries, disconnect — reporting
// connection setup throughput (conn/s) and query round-trip latency
// percentiles over real TCP. With -addr it drives an external cheetahd
// (the CI e2e job builds one, drives it, then SIGTERMs it and asserts a
// clean drain); without, it spins an in-process server on a loopback
// port.
//
// The churn loop bounds concurrently-open connections (min(256, conns))
// so thousand-connection runs stay inside default fd limits — and
// connection *setup* rate, not steady-state socket count, is the metric
// that stresses the per-connection fabric plumbing.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/stats"
	"cheetah/internal/table"
	"cheetah/internal/wire"
	"cheetah/internal/workload/multitenant"
)

// netQueriesPerConn is how many mixed-kind queries each simulated
// connection runs before disconnecting.
const netQueriesPerConn = 4

// netWindow bounds concurrently-open connections during the churn.
const netWindow = 256

// NetResult is one churn run's measurement.
type NetResult struct {
	// Conns is the connection count completed.
	Conns int
	// Wall is the makespan of the churn.
	Wall time.Duration
	// RTTMS holds one entry per query round-trip, in completion order.
	RTTMS []float64
	// Queries counts completed query round-trips.
	Queries int
	// Retried counts retryable server errors absorbed (drain shedding,
	// backlog pushback) — nonzero only when the server is under drain
	// or overload.
	Retried int
}

// ConnsPerSec is the connection setup rate over the wall clock.
func (r *NetResult) ConnsPerSec() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.Conns) / r.Wall.Seconds()
}

// netSpecs precomputes the wire specs the simulated clients submit, one
// per mix index over two full kind cycles.
func netSpecs(mix *multitenant.Mix) ([]wire.QuerySpec, error) {
	specs := make([]wire.QuerySpec, 2*multitenant.NumKinds)
	for i := range specs {
		q := mix.Query(i)
		right := ""
		if q.Right != nil {
			right = "rankings"
		}
		s, err := wire.SpecOf(q, "visits", right)
		if err != nil {
			return nil, err
		}
		specs[i] = *s
	}
	return specs, nil
}

// runNetLevel churns conns simulated connections against the server at
// addr: each dials, handshakes as its mix tenant, runs
// netQueriesPerConn queries, and disconnects. The closed loop keeps at
// most netWindow connections open at once.
func runNetLevel(ctx context.Context, addr string, mix *multitenant.Mix, conns int) (*NetResult, error) {
	specs, err := netSpecs(mix)
	if err != nil {
		return nil, err
	}
	window := netWindow
	if conns < window {
		window = conns
	}
	var (
		mu  sync.Mutex
		res NetResult
	)
	work := make(chan int)
	errc := make(chan error, window)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < window; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for connID := range work {
				rtts, retried, err := runNetConn(ctx, addr, mix, specs, connID)
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				mu.Lock()
				res.Conns++
				res.Queries += len(rtts)
				res.Retried += retried
				res.RTTMS = append(res.RTTMS, rtts...)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < conns; i++ {
		select {
		case work <- i:
		case <-ctx.Done():
			close(work)
			wg.Wait()
			return nil, ctx.Err()
		}
	}
	close(work)
	wg.Wait()
	res.Wall = time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return &res, nil
}

// runNetConn is one simulated connection's life: dial, query, close.
func runNetConn(ctx context.Context, addr string, mix *multitenant.Mix, specs []wire.QuerySpec, connID int) (rtts []float64, retried int, err error) {
	cl, err := netserve.Dial(addr, mix.Tenant(connID))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: dial conn %d: %w", connID, err)
	}
	defer cl.Close()
	for j := 0; j < netQueriesPerConn; j++ {
		i := (connID*netQueriesPerConn + j) % len(specs)
		t0 := time.Now()
		_, err := cl.Query(ctx, specs[i], netserve.QueryOptions{Priority: mix.Priority(i)})
		if err != nil {
			var se *netserve.ServerError
			if errors.As(err, &se) && se.Retryable() {
				retried++
				continue
			}
			return nil, retried, fmt.Errorf("bench: conn %d query %d: %w", connID, j, err)
		}
		rtts = append(rtts, float64(time.Since(t0).Microseconds())/1000)
	}
	return rtts, retried, nil
}

// netMix builds the mix the net target serves and queries.
func netMix(o Options) (*multitenant.Mix, error) {
	uvRows := userVisitsRows / o.Scale
	if uvRows < 2000 {
		uvRows = 2000
	}
	rankRows := rankingsRows / o.Scale
	if rankRows < 1000 {
		rankRows = 1000
	}
	return multitenant.NewMix(multitenant.MixConfig{
		VisitRows: uvRows, RankRows: rankRows, Seed: o.BaseSeed,
	})
}

// Net runs the connection-churn benchmark. With addr it drives an
// external cheetahd serving the same mix (same -scale and -seed on
// both sides); with addr == "" it spins an in-process server on a
// loopback port.
func Net(w io.Writer, o Options, addr string, conns int) error {
	o = o.withDefaults()
	if conns <= 0 {
		conns = 1000
	}
	mix, err := netMix(o)
	if err != nil {
		return err
	}
	if addr == "" {
		srv, err := netserve.Listen("127.0.0.1:0", netserve.Options{
			Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
			Primary: "visits",
			Plan:    plan.Options{Workers: 1, Seed: o.BaseSeed, Switches: 2},
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		addr = srv.Addr().String()
	}
	window := netWindow
	if conns < window {
		window = conns
	}
	fmt.Fprintf(w, "net: %d connections × %d queries, window %d, visits=%d rows, server %s\n",
		conns, netQueriesPerConn, window, mix.Visits.NumRows(), addr)
	res, err := runNetLevel(context.Background(), addr, mix, conns)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %10s %12s %10s %10s %8s\n",
		"conns", "conn/s", "queries", "rtt p50 ms", "p99 ms", "wall s", "retried")
	fmt.Fprintf(w, "%-8d %10.1f %10d %12.2f %10.2f %10.2f %8d\n",
		res.Conns, res.ConnsPerSec(), res.Queries,
		stats.Percentile(res.RTTMS, 50), stats.Percentile(res.RTTMS, 99),
		res.Wall.Seconds(), res.Retried)
	return nil
}
