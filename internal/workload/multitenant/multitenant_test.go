package multitenant

import (
	"testing"

	"cheetah/internal/engine"
)

func testMix(t *testing.T) *Mix {
	t.Helper()
	m, err := NewMix(MixConfig{VisitRows: 2000, RankRows: 1500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixCoversAllKindsAndValidates(t *testing.T) {
	m := testMix(t)
	seen := make(map[engine.QueryKind]bool)
	for i := 0; i < NumKinds; i++ {
		q := m.Query(i)
		if err := q.Validate(); err != nil {
			t.Errorf("query %d (%s): %v", i, q.Kind, err)
		}
		if seen[q.Kind] {
			t.Errorf("query %d repeats kind %s within one cycle", i, q.Kind)
		}
		seen[q.Kind] = true
	}
	if len(seen) != NumKinds {
		t.Fatalf("one cycle covers %d kinds, want %d", len(seen), NumKinds)
	}
}

func TestMixDeterministicAndJittered(t *testing.T) {
	m := testMix(t)
	a, b := m.Query(2), m.Query(2)
	if a.Kind != engine.KindTopN || a.N != b.N {
		t.Fatalf("query 2 not deterministic: %v/%d vs %v/%d", a.Kind, a.N, b.Kind, b.N)
	}
	// The next cycle's TOP N instance must differ in its parameter.
	if c := m.Query(2 + NumKinds); c.N == a.N {
		t.Fatalf("no parameter jitter across cycles: N=%d twice", a.N)
	}
}
