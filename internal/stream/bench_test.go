package stream

import (
	"fmt"
	"testing"

	"cheetah/internal/engine"
	"cheetah/internal/table"
)

// standingSink keeps the benchmarked result alive past the compiler.
var standingSink *engine.Result

// BenchmarkDistinctStandingResults holds a DISTINCT standing result of
// 16 500 user-agent-shaped rows. Each iteration appends a 256-row delta
// carrying 12 new agents and flushes the subscription outside the timer,
// then times Results() alone — the render a remote update pays before
// its change set is diffed.
func BenchmarkDistinctStandingResults(b *testing.B) {
	const standingRows, deltaRows, newRows = 16_500, 256, 12
	// An odd multiplier permutes [0, 2^24): agents interleave in order.
	agent := func(i int) string {
		return fmt.Sprintf("Mozilla/5.0 (X11; Linux x86_64; agent %08d) Gecko/20100101", i*7919%(1<<24))
	}
	schema := table.Schema{{Name: "agent", Type: table.String}}
	tb := table.MustNew(schema)
	for i := 0; i < standingRows; i++ {
		if err := tb.AppendRow(agent(i)); err != nil {
			b.Fatal(err)
		}
	}
	in, err := NewIngestor(tb, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer in.Close()
	q := &engine.Query{Kind: engine.KindDistinct, Table: tb, DistinctCols: []string{"agent"}}
	sub, err := in.Subscribe(q, SubOptions{})
	if err != nil {
		b.Fatal(err)
	}
	flush(b, sub)
	sub.Results()
	next := standingRows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delta := table.MustNew(schema)
		for r := 0; r < deltaRows; r++ {
			k := (i*deltaRows + r) * 31 % standingRows // an agent already seen
			if r < newRows {
				k, next = next, next+1
			}
			if err := delta.AppendRow(agent(k)); err != nil {
				b.Fatal(err)
			}
		}
		if err := in.AppendBatch(delta); err != nil {
			b.Fatal(err)
		}
		flush(b, sub)
		b.StartTimer()
		standingSink, _ = sub.Results()
	}
}
