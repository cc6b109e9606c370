// Package workload generates the synthetic datasets used throughout the
// evaluation: Big-Data-benchmark-shaped tables (Rankings, UserVisits —
// Appendix B), TPC-H-Q3-shaped tables, and the raw value streams the
// pruning-rate simulations of Figures 10 and 11 consume. All generators
// are deterministic given a seed.
package workload

import (
	"fmt"
	"math/rand"

	"cheetah/internal/hashutil"
	"cheetah/internal/table"
)

// RankingsSchema matches the benchmark's Rankings table: three columns,
// roughly sorted on pageRank (Appendix B).
func RankingsSchema() table.Schema {
	return table.Schema{
		{Name: "pageURL", Type: table.String},
		{Name: "pageRank", Type: table.Int64},
		{Name: "avgDuration", Type: table.Int64},
	}
}

// Rankings generates n rows roughly sorted on pageRank: ranks ascend
// with bounded random displacement, the property that makes the paper
// shuffle before filter/skyline queries.
func Rankings(n int, seed uint64) *table.Table {
	t := table.MustNew(RankingsSchema())
	t.Grow(n)
	rng := rand.New(rand.NewSource(int64(seed) | 1))
	for i := 0; i < n; i++ {
		rank := int64(i) + rng.Int63n(64) // nearly sorted
		dur := rng.Int63n(60) + 1
		url := fmt.Sprintf("url-%08d.example.com/page", i)
		if err := t.AppendRow(url, rank, dur); err != nil {
			panic(err) // generator bug, not input error
		}
	}
	return t
}

// UserVisitsConfig shapes the UserVisits table.
type UserVisitsConfig struct {
	Rows           int
	DistinctAgents int     // userAgent cardinality (DISTINCT / GROUP BY key)
	Languages      int     // languageCode cardinality (HAVING key)
	DistinctURLs   int     // destURL cardinality (JOIN key universe)
	AgentSkew      float64 // Zipf s-parameter for agent popularity (>1)
	Seed           uint64
}

// DefaultUserVisits sizes the table like a scaled-down benchmark sample.
func DefaultUserVisits(rows int, seed uint64) UserVisitsConfig {
	cfg := UserVisitsConfig{
		Rows:           rows,
		DistinctAgents: 8192,
		Languages:      100,
		DistinctURLs:   rows / 4,
		AgentSkew:      1.3,
		Seed:           seed,
	}
	if cfg.DistinctURLs < 1 {
		cfg.DistinctURLs = 1
	}
	return cfg
}

// UserVisitsSchema matches the benchmark's nine-column UserVisits table.
func UserVisitsSchema() table.Schema {
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

// UserVisits generates the table per cfg. Agent popularity is Zipfian so
// DISTINCT/GROUP BY streams carry realistic duplication.
func UserVisits(cfg UserVisitsConfig) (*table.Table, error) {
	if cfg.Rows <= 0 || cfg.DistinctAgents <= 0 || cfg.Languages <= 0 || cfg.DistinctURLs <= 0 {
		return nil, fmt.Errorf("workload: invalid UserVisits config %+v", cfg)
	}
	if cfg.AgentSkew <= 1 {
		cfg.AgentSkew = 1.1
	}
	t := table.MustNew(UserVisitsSchema())
	t.Grow(cfg.Rows)
	rng := rand.New(rand.NewSource(int64(cfg.Seed) | 1))
	zipf := rand.NewZipf(rng, cfg.AgentSkew, 1, uint64(cfg.DistinctAgents-1))
	countries := []string{"US", "DE", "JP", "BR", "IN", "GB", "FR", "NG", "CN", "AU"}
	for i := 0; i < cfg.Rows; i++ {
		agent := fmt.Sprintf("agent/%06d (Cheetah; rv:%d)", zipf.Uint64(), i%7)
		lang := fmt.Sprintf("lang-%03d", rng.Intn(cfg.Languages))
		url := fmt.Sprintf("url-%08d.example.com/page", rng.Intn(cfg.DistinctURLs))
		ip := fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256))
		err := t.AppendRow(
			ip,
			url,
			int64(20190101+rng.Intn(365)),
			rng.Int63n(10_000), // adRevenue in cents
			agent,
			countries[rng.Intn(len(countries))],
			lang,
			fmt.Sprintf("word-%04d", rng.Intn(5000)),
			rng.Int63n(600)+1,
		)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// TPCHOrdersSchema is the Q3-relevant projection of TPC-H orders.
func TPCHOrdersSchema() table.Schema {
	return table.Schema{
		{Name: "o_orderkey", Type: table.Int64},
		{Name: "o_custkey", Type: table.Int64},
		{Name: "o_orderdate", Type: table.Int64},
		{Name: "o_shippriority", Type: table.Int64},
	}
}

// TPCHLineItemSchema is the Q3-relevant projection of TPC-H lineitem.
func TPCHLineItemSchema() table.Schema {
	return table.Schema{
		{Name: "l_orderkey", Type: table.Int64},
		{Name: "l_extendedprice", Type: table.Int64},
		{Name: "l_discount", Type: table.Int64},
		{Name: "l_shipdate", Type: table.Int64},
	}
}

// TPCHQ3 generates orders and lineitem tables shaped like TPC-H Q3's
// inputs: every lineitem references an order, ~4 lineitems per order,
// and date columns that Q3's filters select on.
func TPCHQ3(orders int, seed uint64) (ordersT, lineitemT *table.Table, err error) {
	if orders <= 0 {
		return nil, nil, fmt.Errorf("workload: orders count %d must be positive", orders)
	}
	rng := rand.New(rand.NewSource(int64(seed) | 1))
	ot := table.MustNew(TPCHOrdersSchema())
	ot.Grow(orders)
	for i := 0; i < orders; i++ {
		err := ot.AppendInt64Row(
			int64(i+1),
			rng.Int63n(int64(orders/10+1))+1,
			int64(19950101+rng.Intn(400)),
			rng.Int63n(5),
		)
		if err != nil {
			return nil, nil, err
		}
	}
	lt := table.MustNew(TPCHLineItemSchema())
	lines := orders * 4
	lt.Grow(lines)
	for i := 0; i < lines; i++ {
		err := lt.AppendInt64Row(
			rng.Int63n(int64(orders))+1,
			rng.Int63n(100_000)+1,
			rng.Int63n(10),
			int64(19950101+rng.Intn(400)),
		)
		if err != nil {
			return nil, nil, err
		}
	}
	return ot, lt, nil
}

// DistinctStream generates a random-order stream of m entries drawn from
// d distinct values, each value appearing m/d times (±1) — the stream
// model of Theorem 1/8.
func DistinctStream(m, distinct int, seed uint64) []uint64 {
	vals := make([]uint64, m)
	for i := range vals {
		vals[i] = uint64(i % distinct)
	}
	shuffleU64(vals, seed)
	return vals
}

// UniformStream generates m distinct values 1..m in random order — the
// TOP N stream model of Theorem 3/10.
func UniformStream(m int, seed uint64) []int64 {
	vals := make([]int64, m)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	s := seed
	for i := m - 1; i > 0; i-- {
		s = hashutil.SplitMix64(s)
		j := int(hashutil.ReduceFull(s, uint64(i+1)))
		vals[i], vals[j] = vals[j], vals[i]
	}
	return vals
}

// Points2D generates m independent 2-D points with the given coordinate
// ranges (SKYLINE's evaluation data; ranges deliberately skewed to show
// the Sum-vs-APH gap).
func Points2D(m int, maxX, maxY uint64, seed uint64) [][]uint64 {
	pts := make([][]uint64, m)
	s := seed
	for i := range pts {
		s = hashutil.SplitMix64(s)
		x := s % maxX
		s = hashutil.SplitMix64(s)
		y := s % maxY
		pts[i] = []uint64{x, y}
	}
	return pts
}

// CorrelatedPoints2D generates m points on a noisy diagonal band:
// y ≈ x·(maxY/maxX) + noise. Correlated dimensions with very different
// ranges mirror the benchmark's (pageRank, avgDuration) skyline inputs
// and produce the paper's heuristic ordering (APH ≈ Sum ≪ Baseline).
func CorrelatedPoints2D(m int, maxX, maxY, noise uint64, seed uint64) [][]uint64 {
	if maxX < 2 {
		maxX = 2
	}
	ratio := maxY / maxX
	if ratio < 1 {
		ratio = 1
	}
	pts := make([][]uint64, m)
	s := seed
	for i := range pts {
		s = hashutil.SplitMix64(s)
		x := s % maxX
		s = hashutil.SplitMix64(s)
		var n uint64
		if noise > 0 {
			n = s % noise
		}
		pts[i] = []uint64{x, x*ratio + n}
	}
	return pts
}

// ZipfKeys generates m keys from a Zipf(skew) distribution over n keys —
// GROUP BY / HAVING key streams.
func ZipfKeys(m int, skew float64, n uint64, seed uint64) []uint64 {
	if skew <= 1 {
		skew = 1.1
	}
	if n < 2 {
		n = 2
	}
	rng := rand.New(rand.NewSource(int64(seed) | 1))
	zipf := rand.NewZipf(rng, skew, 1, n-1)
	keys := make([]uint64, m)
	for i := range keys {
		keys[i] = zipf.Uint64()
	}
	return keys
}

// JoinKeyStreams generates two key streams with `overlap` shared keys
// plus per-side unique keys, shuffled.
func JoinKeyStreams(overlap, onlyA, onlyB int, seed uint64) (a, b []uint64) {
	s := seed
	next := func() uint64 { s = hashutil.SplitMix64(s); return s }
	for i := 0; i < overlap; i++ {
		k := next()
		a = append(a, k)
		b = append(b, k)
	}
	for i := 0; i < onlyA; i++ {
		a = append(a, next())
	}
	for i := 0; i < onlyB; i++ {
		b = append(b, next())
	}
	shuffleU64(a, seed^0xaaaa)
	shuffleU64(b, seed^0xbbbb)
	return a, b
}

func shuffleU64(vals []uint64, seed uint64) {
	s := seed
	for i := len(vals) - 1; i > 0; i-- {
		s = hashutil.SplitMix64(s)
		j := int(hashutil.ReduceFull(s, uint64(i+1)))
		vals[i], vals[j] = vals[j], vals[i]
	}
}
