package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cheetah/internal/netserve"
	"cheetah/internal/wire"
	"cheetah/internal/workload/multitenant"
)

// TestDaemonChurnScrapeDrain runs the daemon end to end over loopback
// TCP: a served mix fed by a generator source under a standing pipe,
// churned by short-lived client connections (dial, handshake, a few
// mixed-kind queries, disconnect) at most a window of them open at once,
// scraped on /metrics and /healthz, then signalled. run returning nil is
// the clean-drain contract (zero active leases); afterwards the listener
// must refuse new connections.
func TestDaemonChurnScrapeDrain(t *testing.T) {
	const (
		rows, rankRows = 2000, 1000
		conns          = 256
		window         = 16
		queriesPerConn = 2
	)
	stop := make(chan os.Signal, 1)
	type addrs struct{ srv, metrics string }
	readyc := make(chan addrs, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{
			"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
			"-rows", fmt.Sprint(rows), "-rank-rows", fmt.Sprint(rankRows), "-switches", "2",
			"-source", "gen:rows=2048,batch=256",
			"-pipe", "kind=topn,sink=null:",
		}, stop, func(addr, metricsAddr string) { readyc <- addrs{addr, metricsAddr} })
	}()
	var a addrs
	select {
	case a = <-readyc:
	case err := <-errc:
		t.Fatalf("run returned before serving: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("daemon not ready after 60s")
	}

	// The clients query the daemon's own mix shapes by table name; the
	// local mix only builds the specs (default -seed).
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: rows, RankRows: rankRows, Seed: 0xc0ffee})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]wire.QuerySpec, multitenant.NumKinds)
	for i := range specs {
		q := mix.Query(i)
		right := ""
		if q.Right != nil {
			right = "rankings"
		}
		s, err := wire.SpecOf(q, "visits", right)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = *s
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(window)
	for w := 0; w < window; w++ {
		go func() {
			defer wg.Done()
			for id := w; id < conns; id += window {
				if err := churnConn(ctx, a.srv, mix, specs, id, queriesPerConn); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	metrics := scrape(t, "http://"+a.metrics+"/metrics")
	if !strings.Contains("\n"+metrics, "\ncheetah_") {
		t.Errorf("/metrics has no cheetah_ series:\n%s", metrics)
	}
	for _, name := range []string{"visits", "rankings"} {
		if series := fmt.Sprintf("\ncheetah_table_derived_bytes{table=%q} ", name); !strings.Contains(metrics, series) {
			t.Errorf("/metrics lacks%s", series)
		}
	}
	scrape(t, "http://"+a.metrics+"/healthz")

	stop <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain within 60s of SIGTERM")
	}
	if cl, err := netserve.Dial(a.srv, "late"); err == nil {
		cl.Close()
		t.Fatal("daemon still accepts connections after its drain")
	}
}

// churnConn is one short-lived client: dial as the mix tenant of id,
// run n queries (a retryable refusal counts as answered), disconnect.
func churnConn(ctx context.Context, addr string, mix *multitenant.Mix, specs []wire.QuerySpec, id, n int) error {
	cl, err := netserve.Dial(addr, mix.Tenant(id))
	if err != nil {
		return fmt.Errorf("dial conn %d: %w", id, err)
	}
	defer cl.Close()
	for j := 0; j < n; j++ {
		i := (id*n + j) % len(specs)
		_, err := cl.Query(ctx, specs[i], netserve.QueryOptions{Priority: mix.Priority(i)})
		var se *netserve.ServerError
		if err != nil && !(errors.As(err, &se) && se.Retryable()) {
			return fmt.Errorf("conn %d query %d: %w", id, j, err)
		}
	}
	return nil
}

// scrape GETs url, requires 200 and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s\n%s", url, resp.Status, body)
	}
	return string(body)
}
