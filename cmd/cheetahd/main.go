// Command cheetahd serves a Cheetah fabric over TCP: external clients
// submit one-shot queries, stream appends, and hold standing
// subscriptions against the multi-switch fabric through the
// internal/wire frame protocol (see internal/netserve for the client).
//
// Usage:
//
//	cheetahd [-listen addr] [-rows N] [-rank-rows N] [-scale N]
//	         [-switches W] [-workers K] [-seed S]
//	         [-queue-limit N] [-tenant-quota N]
//	         [-backlog N] [-shed]
//	         [-metrics addr] [-pprof] [-slow-query D]
//	         [-source spec]... [-pipe kind=KIND,sink=SPEC]...
//
// The served catalog is the multi-tenant mix ("visits" + "rankings",
// the paper's table sizes divided by -scale); -rows/-rank-rows override
// the sizes directly. Streaming over "visits" is always on:
// -backlog/-shed set the ingestor's backpressure policy. One-shot
// queries and standing subscriptions share one fabric of -switches
// switches; -queue-limit caps each switch's admission queue and
// -tenant-quota each tenant's one-shot leases per switch (standing
// programs count toward no quota).
//
// Connector topology comes from repeatable flags: each -source spec
// (e.g. "gen:rows=100000,batch=256,rate=5000") pumps rows into the
// served table through the connector runtime, and each -pipe
// (e.g. "kind=topn,sink=log:path=-") holds a server-side continuous
// query whose standing-result refreshes fan into the named sink.
//
// -metrics starts a second HTTP listener serving GET /metrics
// (Prometheus text exposition of the fabric's shared registry:
// admission counters, queue-depth and lease gauges, per-kind query
// latency histograms with p50/p99) and GET /healthz (200 while the
// fabric can place queries, 503 once draining or every switch is
// down). -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on that listener. -slow-query logs any query whose
// wall clock exceeds the threshold and counts it in slow_queries.
//
// On SIGTERM/SIGINT the server drains: new work is refused with a
// retryable error, in-flight queries finish, subscriptions close after
// a final update, connector pumps stop, and the process exits 0 — the
// contract TestDaemonChurnScrapeDrain asserts.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cheetah/internal/connector"
	"cheetah/internal/engine"
	"cheetah/internal/netserve"
	"cheetah/internal/plan"
	"cheetah/internal/table"
	"cheetah/internal/workload/multitenant"
)

// stringList is a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, "; ") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// paper-scale mix sizes, mirrored from internal/bench so -scale means
// the same thing to cheetahd and cheetah-bench.
const (
	paperVisitRows = 31_700_000
	paperRankRows  = 18_000_000
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	if err := run(os.Args[1:], stop, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cheetahd:", err)
		os.Exit(1)
	}
}

// run is the daemon: it parses args, serves until a signal arrives on
// stop, then drains. ready, when non-nil, is called with the bound
// server and metrics addresses ("" without -metrics) once the connector
// topology stands.
func run(args []string, stop <-chan os.Signal, ready func(addr, metricsAddr string)) error {
	fs := flag.NewFlagSet("cheetahd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:4780", "TCP listen address")
	scale := fs.Int("scale", 200, "divide paper dataset sizes by this factor (matches cheetah-bench -scale)")
	rows := fs.Int("rows", 0, "visits table rows (0 = paper rows / scale)")
	rankRows := fs.Int("rank-rows", 0, "rankings table rows (0 = paper rows / scale)")
	switches := fs.Int("switches", 2, "fabric width (switch pipelines)")
	workers := fs.Int("workers", 1, "CWorkers per query")
	seed := fs.Uint64("seed", 0xc0ffee, "RNG seed for tables and pruners")
	queueLimit := fs.Int("queue-limit", 0, "per-switch admission queue cap (0 = unbounded)")
	tenantQuota := fs.Int("tenant-quota", 0, "per-tenant concurrent lease cap per switch (0 = unlimited)")
	backlog := fs.Int("backlog", 0, "ingest backlog cap in rows ahead of the slowest subscription (0 = unbounded)")
	shed := fs.Bool("shed", false, "shed over-backlog appends instead of blocking")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	metricsAddr := fs.String("metrics", "", "HTTP address serving /metrics (Prometheus text) and /healthz (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/ on the -metrics server")
	slowQuery := fs.Duration("slow-query", 0, "log queries slower than this wall-clock threshold (0 = disabled)")
	var sources, pipes stringList
	fs.Var(&sources, "source", "connector source spec feeding the served table (repeatable), e.g. gen:rows=100000,batch=256")
	fs.Var(&pipes, "pipe", "server-side continuous query piped to a sink (repeatable), e.g. kind=topn,sink=log:path=-")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	uvRows := *rows
	if uvRows <= 0 {
		uvRows = max(paperVisitRows / *scale, 2000)
	}
	rkRows := *rankRows
	if rkRows <= 0 {
		rkRows = max(paperRankRows / *scale, 1000)
	}
	mix, err := multitenant.NewMix(multitenant.MixConfig{VisitRows: uvRows, RankRows: rkRows, Seed: *seed})
	if err != nil {
		return err
	}

	srv, err := netserve.Listen(*listen, netserve.Options{
		Tables:  map[string]*table.Table{"visits": mix.Visits, "rankings": mix.Rankings},
		Primary: "visits",
		Plan: plan.Options{Switches: *switches, Workers: *workers, Seed: *seed,
			QueueLimit: *queueLimit, TenantQuota: *tenantQuota},
		Stream: &plan.StreamOptions{Backlog: *backlog, Shed: *shed},

		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		return err
	}
	fmt.Printf("cheetahd: listening on %s (visits=%d rows, rankings=%d rows, %d switches)\n",
		srv.Addr(), uvRows, rkRows, *switches)

	// Observability sidecar: a plain HTTP listener serving the shared
	// metrics registry as Prometheus text plus a fabric-backed health
	// probe; pprof mounts only when asked for.
	var obsSrv *http.Server
	var obsAddr string
	if *metricsAddr != "" {
		obsSrv, obsAddr, err = serveObs(srv, *metricsAddr, *pprofOn)
		if err != nil {
			return err
		}
	}

	// Connector topology: sources pump into the served table, pipes
	// hold continuous queries fanning into sinks.
	rt, err := connector.NewRuntime(srv.Streaming())
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, spec := range sources {
		src, err := connector.OpenSource(spec)
		if err != nil {
			return err
		}
		if err := rt.Feed(ctx, src); err != nil {
			return err
		}
		fmt.Printf("cheetahd: source %q feeding visits\n", spec)
	}
	for _, spec := range pipes {
		q, sink, err := buildPipe(mix, spec)
		if err != nil {
			return err
		}
		if _, err := rt.Pipe(ctx, q, sink); err != nil {
			return err
		}
		fmt.Printf("cheetahd: pipe %q standing\n", spec)
	}

	if ready != nil {
		ready(srv.Addr().String(), obsAddr)
	}
	// SIGTERM/SIGINT → graceful drain: in-flight work finishes, every
	// client gets a result, a retryable error, or a Goodbye.
	sig := <-stop
	fmt.Printf("cheetahd: %v, draining\n", sig)
	if obsSrv != nil {
		// The probe endpoint goes down with the drain: /healthz flips to
		// 503 the moment Shutdown marks the server draining, and the
		// listener itself closes once in-flight scrapes finish.
		defer obsSrv.Close()
	}
	rt.Close()
	dctx, cancel := context.WithTimeout(ctx, *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	stats := srv.Stats()
	fmt.Printf("cheetahd: drained clean (admitted %d, shed %d, failed over %d, active leases %d)\n",
		stats.Admitted, stats.Shed, stats.FailedOver, stats.Active)
	if stats.Active != 0 {
		return fmt.Errorf("drain left %d active leases", stats.Active)
	}
	return nil
}

// serveObs starts the observability HTTP listener: GET /metrics dumps
// the server's shared registry in Prometheus text exposition format
// (with each catalog table's derived bytes read at the scrape),
// GET /healthz answers 200 while the fabric can place queries (503
// once draining or every switch is down), and -pprof
// mounts the standard net/http/pprof handlers under /debug/pprof/. It
// returns the listener's bound address.
func serveObs(srv *netserve.Server, addr string, withPprof bool) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = srv.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if srv.Healthy() {
			w.WriteHeader(http.StatusOK)
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "unavailable")
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }()
	fmt.Printf("cheetahd: metrics on http://%s/metrics (healthz%s)\n",
		ln.Addr(), map[bool]string{true: ", pprof", false: ""}[withPprof])
	return hs, ln.Addr().String(), nil
}

// buildPipe parses a "kind=KIND,sink=SPEC" pipe flag into a continuous
// query over the mix's visits table plus its sink. KIND is one of the
// eight mix kinds by name; the query shape is the mix's canonical one
// for that kind.
func buildPipe(mix *multitenant.Mix, spec string) (*engine.Query, connector.Sink, error) {
	kinds := map[string]int{
		"filter": 0, "distinct": 1, "topn": 2, "groupbymax": 3,
		"groupbysum": 4, "having": 5, "join": 6, "skyline": 7,
	}
	// The sink spec may itself contain commas (its own args), so split
	// on "sink=" first: everything after it belongs to the sink.
	var kind, sinkSpec string
	head := spec
	if idx := strings.Index(spec, "sink="); idx >= 0 {
		sinkSpec = spec[idx+len("sink="):]
		head = strings.TrimSuffix(spec[:idx], ",")
	}
	for _, kv := range strings.Split(head, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, nil, fmt.Errorf("malformed -pipe argument %q in %q", kv, spec)
		}
		if k != "kind" {
			return nil, nil, fmt.Errorf("unknown -pipe key %q in %q", k, spec)
		}
		kind = v
	}
	ki, ok := kinds[kind]
	if !ok {
		return nil, nil, fmt.Errorf("-pipe needs kind= one of filter|distinct|topn|groupbymax|groupbysum|having|join|skyline, got %q", kind)
	}
	if sinkSpec == "" {
		return nil, nil, fmt.Errorf("-pipe needs sink=, got %q", spec)
	}
	sink, err := connector.OpenSink(sinkSpec)
	if err != nil {
		return nil, nil, err
	}
	return mix.Query(ki), sink, nil
}
