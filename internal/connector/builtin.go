package connector

// Built-in connectors: the generator and CSV sources, the log and null
// sinks. OpenSource and OpenSink build them from specs; cheetahd exposes
// them via -source/-pipe flags.

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"time"

	"cheetah/internal/engine"
	"cheetah/internal/hashutil"
	"cheetah/internal/table"
)

// genSource synthesizes deterministic rows for any schema: Int64
// columns draw bounded values, String columns draw from a small
// vocabulary — enough cardinality structure for every pruner family to
// have work to do.
type genSource struct {
	rows  int // total rows to emit (0 = unbounded)
	batch int
	pause time.Duration // inter-batch pause derived from rate
	seed  uint64

	emitted int
}

func newGenSource(args map[string]string) (Source, error) {
	rows, err := atoiDefault(args, "rows", 0)
	if err != nil {
		return nil, err
	}
	batch, err := atoiDefault(args, "batch", 256)
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		return nil, fmt.Errorf("connector: gen batch must be positive")
	}
	rate, err := atoiDefault(args, "rate", 0) // rows per second; 0 = unpaced
	if err != nil {
		return nil, err
	}
	seed, err := atoiDefault(args, "seed", 1)
	if err != nil {
		return nil, err
	}
	g := &genSource{rows: rows, batch: batch, seed: uint64(seed)}
	if rate > 0 {
		g.pause = time.Duration(float64(batch) / float64(rate) * float64(time.Second))
	}
	return g, nil
}

func (g *genSource) ReadBatch(ctx context.Context, schema table.Schema) (*table.Table, error) {
	if g.rows > 0 && g.emitted >= g.rows {
		return nil, io.EOF
	}
	if g.pause > 0 && g.emitted > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(g.pause):
		}
	}
	n := g.batch
	if g.rows > 0 && g.emitted+n > g.rows {
		n = g.rows - g.emitted
	}
	t, err := table.New(schema)
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(schema))
	for i := 0; i < n; i++ {
		row := uint64(g.emitted + i)
		for c, col := range schema {
			h := hashutil.SplitMix64(g.seed ^ row*0x9e3779b97f4a7c15 ^ uint64(c)<<32)
			if col.Type == table.Int64 {
				vals[c] = int64(h % 10_000)
			} else {
				vals[c] = fmt.Sprintf("%s-%d", col.Name, h%64)
			}
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	g.emitted += n
	return t, nil
}

func (g *genSource) Close() error { return nil }

// csvSource reads rows from a CSV file whose columns match the served
// schema positionally (no header handling beyond "skip a first row
// that fails integer parsing on an Int64 column").
type csvSource struct {
	path  string
	batch int
	loop  bool

	mu     sync.Mutex
	f      *os.File
	r      *csv.Reader
	first  bool
	closed bool
}

func newCSVSource(args map[string]string) (Source, error) {
	path := args["path"]
	if path == "" {
		return nil, fmt.Errorf("connector: csv source needs path=")
	}
	batch, err := atoiDefault(args, "batch", 256)
	if err != nil {
		return nil, err
	}
	if batch <= 0 {
		return nil, fmt.Errorf("connector: csv batch must be positive")
	}
	return &csvSource{path: path, batch: batch, loop: args["loop"] == "true", first: true}, nil
}

func (c *csvSource) open() error {
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	c.f = f
	c.r = csv.NewReader(f)
	c.r.ReuseRecord = true
	return nil
}

func (c *csvSource) ReadBatch(ctx context.Context, schema table.Schema) (*table.Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, io.EOF
	}
	if c.f == nil {
		if err := c.open(); err != nil {
			return nil, err
		}
	}
	t, err := table.New(schema)
	if err != nil {
		return nil, err
	}
	vals := make([]any, len(schema))
	for t.NumRows() < c.batch {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rec, err := c.r.Read()
		if err == io.EOF {
			if c.loop && t.NumRows() == 0 {
				c.f.Close()
				c.f = nil
				if err := c.open(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
		if err != nil {
			return nil, err
		}
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("connector: csv row has %d fields, schema has %d", len(rec), len(schema))
		}
		skip := false
		for i, col := range schema {
			if col.Type == table.Int64 {
				v, err := strconv.ParseInt(rec[i], 10, 64)
				if err != nil {
					if c.first {
						skip = true // header row
						break
					}
					return nil, fmt.Errorf("connector: csv field %q is not an integer", rec[i])
				}
				vals[i] = v
			} else {
				vals[i] = rec[i]
			}
		}
		c.first = false
		if skip {
			continue
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	if t.NumRows() == 0 {
		return nil, io.EOF
	}
	return t, nil
}

func (c *csvSource) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.f != nil {
		err := c.f.Close()
		c.f = nil
		return err
	}
	return nil
}

// logSink renders each standing-result refresh to a writer, one
// compact line per update.
type logSink struct {
	mu  sync.Mutex
	w   io.Writer
	f   *os.File // owned file, nil for stdout
	tag string
}

func newLogSink(args map[string]string) (Sink, error) {
	path := args["path"]
	s := &logSink{tag: args["tag"]}
	if path == "" || path == "-" {
		s.w = os.Stdout
		return s, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.w = f
	s.f = f
	return s, nil
}

func (s *logSink) Write(version uint64, res *engine.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tag := s.tag
	if tag != "" {
		tag += " "
	}
	_, err := fmt.Fprintf(s.w, "%sv%d: %d rows\n", tag, version, len(res.Rows))
	return err
}

func (s *logSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}

// nullSink discards updates (load tests and drain smokes).
type nullSink struct{}

func (nullSink) Write(uint64, *engine.Result) error { return nil }
func (nullSink) Close() error                       { return nil }
