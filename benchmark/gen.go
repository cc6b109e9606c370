package main

// The benchmark owns its inputs: UserVisits/Rankings-shaped tables and
// the 36-spec op stream are generated here from -seed through the public
// table and engine.Query types only, so editing program code (or the
// repo's other generators) cannot move what the benchmark measures.
// TestInputsPinned pins a checksum of both for -seed 1.

import (
	"math"
	"math/rand"
	"strconv"

	"cheetah/internal/boolexpr"
	"cheetah/internal/engine"
	"cheetah/internal/prune"
	"cheetah/internal/table"
)

// kinds are the nine op names, in op-stream order; every per-kind metric
// is suffixed or prefixed with one of them.
var kinds = []string{
	"filter", "filter_range", "distinct", "topn", "groupby_max",
	"groupby_sum", "having", "join", "skyline",
}

const (
	opFilter = iota
	opFilterRange
	opDistinct
	opTopN
	opGroupByMax
	opGroupBySum
	opHaving
	opJoin
	opSkyline
	numKinds

	// numVariants parameter variants per kind give the op stream its
	// period of 36. Only filter (lo), filter_range (d) and topn (N)
	// vary; the other six shapes repeat verbatim — a stated property:
	// served queries repeat by construction.
	numVariants = 4
	period      = numKinds * numVariants

	// batchRows is the append batch size of every ingest phase.
	batchRows = 256
	// batchesPerDay spaces appended batches along visitDate, so appends
	// arrive in date order like an ingest-ordered log.
	batchesPerDay = 8

	firstDate = 20190101
	dateSpan  = 365
	rangeDays = 7
)

var topNs = [numVariants]int{50, 100, 150, 250}

var countries = []string{"US", "DE", "JP", "BR", "IN", "GB", "FR", "NG", "CN", "AU"}

func visitsSchema() table.Schema {
	return table.Schema{
		{Name: "sourceIP", Type: table.String},
		{Name: "destURL", Type: table.String},
		{Name: "visitDate", Type: table.Int64},
		{Name: "adRevenue", Type: table.Int64},
		{Name: "userAgent", Type: table.String},
		{Name: "countryCode", Type: table.String},
		{Name: "languageCode", Type: table.String},
		{Name: "searchWord", Type: table.String},
		{Name: "duration", Type: table.Int64},
	}
}

func rankingsSchema() table.Schema {
	return table.Schema{
		{Name: "pageURL", Type: table.String},
		{Name: "pageRank", Type: table.Int64},
		{Name: "avgDuration", Type: table.Int64},
	}
}

// visitGen formats UserVisits rows. Every string is its own allocation,
// as in a table loaded from a file: strings shared between rows would
// let the program's hash maps compare by pointer. Rows are formatted by
// hand because generation is most of setup_s and all of the untimed gaps
// between appends.
type visitGen struct {
	rng *rand.Rand
	buf []byte
}

// visit is one row's queried columns; sourceIP and searchWord, which no
// op reads, are drawn at random when the row is appended.
type visit struct {
	url, date, revenue, agent, rev, country, lang, duration int
}

const (
	numAgents   = 8192
	agentRevs   = 7
	numLangs    = 100
	maxRevenue  = 10_000
	maxDuration = 600
	// zipfS is the skew of agent popularity.
	zipfS = 1.3
)

// name formats prefix + v zero-padded to width + suffix.
func (g *visitGen) name(prefix string, v, width int, suffix string) string {
	b := append(g.buf[:0], prefix...)
	for d := width - 1; d >= 0; d-- {
		b = append(b, 0)
	}
	for i := len(b) - 1; i >= len(prefix); i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	g.buf = append(b, suffix...)
	return string(g.buf)
}

func (g *visitGen) url(i int) string { return g.name("url-", i, 8, ".example.com/page") }

func (g *visitGen) appendRow(t *table.Table, v visit) {
	r := g.rng
	ip := append(g.buf[:0], "10."...)
	ip = strconv.AppendInt(ip, int64(r.Intn(256)), 10)
	ip = strconv.AppendInt(append(ip, '.'), int64(r.Intn(256)), 10)
	ip = strconv.AppendInt(append(ip, '.'), int64(r.Intn(256)), 10)
	g.buf = ip
	err := t.AppendRow(
		string(ip),
		g.url(v.url),
		int64(v.date),
		int64(v.revenue),
		g.name("agent/", v.agent, 6, " (Cheetah; rv:"+string(rune('0'+v.rev))+")"),
		countries[v.country],
		g.name("lang-", v.lang, 3, ""),
		g.name("word-", r.Intn(5000), 4, ""),
		int64(v.duration),
	)
	if err != nil {
		panic(err) // generator bug: the row matches visitsSchema
	}
}

// agentQuotas deals rows rows to the agents in Zipf(zipfS) proportions,
// deterministically: agent a gets ⌊rows·w(a)/W⌋ rows, the remainder goes
// to the most popular ones.
func agentQuotas(rows int) []int {
	w := make([]float64, numAgents)
	var sum float64
	for a := range w {
		w[a] = math.Pow(float64(a+1), -zipfS)
		sum += w[a]
	}
	quotas := make([]int, numAgents)
	left := rows
	for a := range quotas {
		quotas[a] = int(float64(rows) * w[a] / sum)
		left -= quotas[a]
	}
	for a := 0; left > 0; a, left = (a+1)%numAgents, left-1 {
		quotas[a]++
	}
	return quotas
}

// genVisits generates the visits table. Every queried column is a fixed
// multiset — the same values in the same numbers for every seed — dealt
// to the rows in a seed-driven order: the seed moves which values meet
// in a row, not how many distinct agents, matching URLs or rows per
// group there are, so a metric does not swing with the seed. Agents are
// Zipfian, URLs cover a quarter of the row count four times over (every
// visit joins a ranking), dates cover one year evenly. Dates alone are
// not dealt: rows are generated in visitDate order — the ingest-ordered
// log filter_range needs for the skip index to have anything to skip —
// so a column's strings lie in memory in row order, as in a log loaded
// from a file. (Sorting a table generated in random order leaves every
// string access a random one; such a scan took half as long again and
// swung twice as much with what the host's other tenants did.)
func genVisits(rows int, seed uint64) *table.Table {
	g := &visitGen{rng: rand.New(rand.NewSource(int64(seed)))}
	vs := make([]visit, rows)
	urls := max(rows/4, 1)
	for i := range vs {
		vs[i] = visit{
			url: i % urls, date: firstDate + i*dateSpan/rows, revenue: i * maxRevenue / rows,
			country: i % len(countries), lang: i % numLangs, duration: i%maxDuration + 1,
		}
	}
	i := 0
	for a, n := range agentQuotas(rows) {
		for j := 0; j < n; j, i = j+1, i+1 {
			vs[i].agent, vs[i].rev = a, j%agentRevs
		}
	}
	// One shuffle per column but the date, so the columns are dealt
	// independently.
	g.rng.Shuffle(rows, func(a, b int) { vs[a].url, vs[b].url = vs[b].url, vs[a].url })
	g.rng.Shuffle(rows, func(a, b int) { vs[a].revenue, vs[b].revenue = vs[b].revenue, vs[a].revenue })
	g.rng.Shuffle(rows, func(a, b int) {
		vs[a].agent, vs[b].agent = vs[b].agent, vs[a].agent
		vs[a].rev, vs[b].rev = vs[b].rev, vs[a].rev
	})
	g.rng.Shuffle(rows, func(a, b int) { vs[a].country, vs[b].country = vs[b].country, vs[a].country })
	g.rng.Shuffle(rows, func(a, b int) { vs[a].lang, vs[b].lang = vs[b].lang, vs[a].lang })
	g.rng.Shuffle(rows, func(a, b int) { vs[a].duration, vs[b].duration = vs[b].duration, vs[a].duration })

	t := table.MustNew(visitsSchema())
	t.Grow(rows)
	for _, v := range vs {
		g.appendRow(t, v)
	}
	return t
}

// batchGen draws the append batches of the ingest phases, in order: the
// log continues after the preloaded year, batchesPerDay batches per day,
// so appends arrive in visitDate order and never repeat content. Batch
// rows are drawn at random from the table's value ranges.
type batchGen struct {
	g    visitGen
	zipf *rand.Zipf
	urls int
	k    int
}

func newBatchGen(baseRows int, seed uint64) *batchGen {
	rng := rand.New(rand.NewSource(int64(seed ^ 0xba7c4e5)))
	return &batchGen{
		g: visitGen{rng: rng}, zipf: rand.NewZipf(rng, zipfS, 1, numAgents-1), urls: max(baseRows/4, 1),
	}
}

func (b *batchGen) next() *table.Table {
	t := table.MustNew(visitsSchema())
	t.Grow(batchRows)
	r := b.g.rng
	date := firstDate + dateSpan + b.k/batchesPerDay
	for i := 0; i < batchRows; i++ {
		b.g.appendRow(t, visit{
			url: r.Intn(b.urls), date: date, revenue: r.Intn(maxRevenue),
			agent: int(b.zipf.Uint64()), rev: i % agentRevs, country: r.Intn(len(countries)),
			lang: r.Intn(numLangs), duration: r.Intn(maxDuration) + 1,
		})
	}
	b.k++
	return t
}

func genRankings(rows int, seed uint64) *table.Table {
	t := table.MustNew(rankingsSchema())
	t.Grow(rows)
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed)))
	var g visitGen
	for i := 0; i < rows; i++ {
		err := t.AppendRow(
			g.url(i),
			int64(i)+rng.Int63n(64),
			rng.Int63n(60)+1,
		)
		if err != nil {
			panic(err)
		}
	}
	return t
}

// opStream is one period of the op stream bound to concrete tables:
// index i is kind i%9, variant i/9.
type opStream [period]*engine.Query

func opKind(i int) int { return i % numKinds }

// genOps builds the 36 queries over visits/rankings. Variant parameters
// (filter lo, range start d) derive from seed; HAVING's cut is the visits
// row count.
func genOps(visits, rankings *table.Table, seed uint64) *opStream {
	threshold := int64(visits.NumRows())
	// Variants are stratified — one lo per quarter of the duration
	// range, one week per quarter of the year — and the seed only
	// jitters them, so selectivity does not swing with it.
	rng := rand.New(rand.NewSource(int64(seed ^ 0x0b5)))
	var los, ds [numVariants]int64
	for v := range los {
		los[v] = int64(v)*75 + rng.Int63n(8)
		ds[v] = firstDate + int64(v)*90 + rng.Int63n(80)
	}
	and2 := boolexpr.And{boolexpr.Leaf{V: 0}, boolexpr.Leaf{V: 1}}
	var ops opStream
	for v := 0; v < numVariants; v++ {
		base := v * numKinds
		ops[base+opFilter] = &engine.Query{
			Kind: engine.KindFilter, Table: visits,
			Predicates: []engine.FilterPred{
				{Col: "duration", Op: prune.OpGT, Const: los[v]},
				{Col: "adRevenue", Op: prune.OpLT, Const: 9_000},
			},
			Formula: and2, CountOnly: true,
		}
		ops[base+opFilterRange] = &engine.Query{
			Kind: engine.KindFilter, Table: visits,
			Predicates: []engine.FilterPred{
				{Col: "visitDate", Op: prune.OpGE, Const: ds[v]},
				{Col: "visitDate", Op: prune.OpLT, Const: ds[v] + rangeDays},
			},
			Formula: and2, CountOnly: true,
		}
		ops[base+opDistinct] = &engine.Query{
			Kind: engine.KindDistinct, Table: visits, DistinctCols: []string{"userAgent"},
		}
		ops[base+opTopN] = &engine.Query{
			Kind: engine.KindTopN, Table: visits, OrderCol: "adRevenue", N: topNs[v],
		}
		ops[base+opGroupByMax] = &engine.Query{
			Kind: engine.KindGroupByMax, Table: visits, KeyCol: "userAgent", AggCol: "adRevenue",
		}
		ops[base+opGroupBySum] = &engine.Query{
			Kind: engine.KindGroupBySum, Table: visits, KeyCol: "countryCode", AggCol: "adRevenue",
		}
		ops[base+opHaving] = &engine.Query{
			Kind: engine.KindHaving, Table: visits, KeyCol: "languageCode", AggCol: "duration",
			Threshold: threshold,
		}
		ops[base+opJoin] = &engine.Query{
			Kind: engine.KindJoin, Table: visits, Right: rankings,
			LeftKey: "destURL", RightKey: "pageURL",
		}
		ops[base+opSkyline] = &engine.Query{
			Kind: engine.KindSkyline, Table: visits, SkylineCols: []string{"adRevenue", "duration"},
		}
	}
	return &ops
}
