package engine_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cheetah/internal/cacheline"
	"cheetah/internal/engine"
	"cheetah/internal/plan"
	"cheetah/internal/prune"
)

// object is memory a program reaches: what a pointer points to, or a
// slice's backing array up to its capacity.
type object struct{ base, size uintptr }

// reachable returns every object reachable from v, with the path to it.
func reachable(v reflect.Value) map[object]string {
	seen := map[object]string{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			o := object{v.Pointer(), v.Type().Elem().Size()}
			if _, dup := seen[o]; v.IsNil() || o.size == 0 || dup {
				return
			}
			seen[o] = path
			walk(v.Elem(), "(*"+path+")")
		case reflect.Slice:
			o := object{v.Pointer(), uintptr(v.Cap()) * v.Type().Elem().Size()}
			if _, dup := seen[o]; v.Cap() == 0 || o.size == 0 || dup {
				return
			}
			seen[o] = path
			if holdsPointers(v.Type().Elem()) {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Map, reflect.Chan, reflect.Func:
			panic(fmt.Sprintf("%s: a %v in a switch program; teach reachable to walk it", path, v.Kind()))
		}
	}
	walk(v, "prog")
	return seen
}

// holdsPointers reports whether a value of type t can reach other memory.
func holdsPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Interface, reflect.Map, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return holdsPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// lineOf is the cache line an address lies on.
func lineOf(addr uintptr) uintptr { return addr / cacheline.Size }

// checkIsolated fails when memory program i reaches and program j does not
// lies on a cache line program j reaches. Objects both reach — a query's
// formula, the APH projector every SKYLINE program of one β shares — are
// read-only by construction and exempt themselves, but not their lines'
// other occupants.
func checkIsolated(t *testing.T, label string, progs []prune.Pruner) {
	t.Helper()
	objs := make([]map[object]string, len(progs))
	lines := make([]map[uintptr]string, len(progs))
	for i, p := range progs {
		objs[i] = reachable(reflect.ValueOf(p))
		lines[i] = map[uintptr]string{}
		for o, path := range objs[i] {
			for l := lineOf(o.base); l <= lineOf(o.base+o.size-1); l++ {
				lines[i][l] = path
			}
		}
	}
	for i := range progs {
		for j := range progs {
			if i == j {
				continue
			}
			for o, path := range objs[i] {
				if _, both := objs[j][o]; both {
					continue
				}
				for l := lineOf(o.base); l <= lineOf(o.base+o.size-1); l++ {
					if other, hit := lines[j][l]; hit {
						t.Fatalf("%s: program %d's %s shares cache line %#x with program %d's %s",
							label, i, path, l*cacheline.Size, j, other)
					}
				}
			}
		}
	}
}

// TestShardProgramsShareNoCacheLine: the programs of one sharded query run
// on k cores at once, each writing its registers and counters on every
// entry, so no cache line may hold memory two of them reach — else two
// cores take turns owning it and k switches run slower than one. Checked
// for every kind at k ∈ {2, 4}, for the engine's default programs and the
// planner's, by walking each program's memory: the struct, its slices and
// everything they point to.
func TestShardProgramsShareNoCacheLine(t *testing.T) {
	tb := engine.EquivTable(t, 2000, 0x15)
	rt := engine.EquivTable(t, 700, 0x16)
	queries := engine.EquivQueries(tb, rt)
	names := make([]string, 0, len(queries))
	for name := range queries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, k := range []int{2, 4} {
		sess, err := plan.Open(tb, plan.Options{Switches: k, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			q := queries[name]
			progs := make([]prune.Pruner, k)
			for s := range progs {
				if progs[s], err = engine.DefaultShardPruner(q, k, 7); err != nil {
					t.Fatal(err)
				}
			}
			checkIsolated(t, fmt.Sprintf("%s k=%d default", name, k), progs)

			p, err := sess.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			if p.Mode != plan.ModeCheetah {
				t.Fatalf("%s k=%d: planned %v: %s", name, k, p.Mode, p.Reason)
			}
			if progs, err = p.NewShardPruners(); err != nil {
				t.Fatal(err)
			}
			checkIsolated(t, fmt.Sprintf("%s k=%d planned", name, k), progs)
		}
		sess.Close()
	}
}
