// Package statcheck holds the two laws the model's reusable values
// obey, each checked by one function for every type that has the
// method: CheckMerge for statistics Merge methods, and CheckReset for
// the Reset methods that re-arm a value in the storage it has grown.
//
// CheckMerge works by reflection, exhaustively over every numeric leaf
// field (including nested structs and arrays). It exists so that adding
// a counter to a Stats struct without teaching Merge about it is a test
// failure, not a silently dropped number.
//
// The contract checked for s.Merge(o):
//
//   - Field-exhaustive: every leaf combines as a sum or a maximum —
//     with a=1 and b=2 the merged value must be 3 (sum) or 2 (max),
//     never the untouched 1.
//   - Commutative on values: merging a into b and b into a produce the
//     same totals.
//   - Identity: merging a zero value into s leaves s unchanged, and
//     merging s into a zero value reproduces s.
package statcheck

import (
	"fmt"
	"reflect"
	"testing"
)

// leaf is one numeric field, addressed by its index path.
type leaf struct {
	path []int
	name string
}

// leaves enumerates the numeric leaves of a struct type, failing on
// any field kind it does not understand (so a future non-numeric
// field forces a conscious decision here).
func leaves(t reflect.Type, prefix []int, name string, out *[]leaf, problems *[]string) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			leaves(f.Type, append(append([]int(nil), prefix...), i), name+"."+f.Name, out, problems)
		}
	case reflect.Array:
		for i := 0; i < t.Len(); i++ {
			leaves(t.Elem(), append(append([]int(nil), prefix...), i), fmt.Sprintf("%s[%d]", name, i), out, problems)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		*out = append(*out, leaf{path: prefix, name: name})
	default:
		*problems = append(*problems, fmt.Sprintf("%s: unsupported field kind %s — extend statcheck or the Merge contract", name, t.Kind()))
	}
}

// field resolves a leaf inside an addressable struct value.
func field(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		switch v.Kind() {
		case reflect.Struct:
			v = v.Field(i)
		default: // array
			v = v.Index(i)
		}
	}
	return v
}

// set assigns an integer magnitude to a numeric leaf.
func set(v reflect.Value, n int64) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(n)
	default:
		v.SetUint(uint64(n))
	}
}

// get reads a numeric leaf back as an integer magnitude.
func get(v reflect.Value) int64 {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		return int64(v.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int()
	default:
		return int64(v.Uint())
	}
}

// CheckMerge verifies the Merge contract for the struct type behind
// zero (a factory returning a pointer to a fresh zero value) and merge
// (dst.Merge(src) adapted to untyped pointers). It returns one line
// per violation; an empty slice means the contract holds.
func CheckMerge(zero func() any, merge func(dst, src any)) []string {
	var problems []string
	proto := reflect.TypeOf(zero()).Elem()
	var ls []leaf
	leaves(proto, nil, proto.Name(), &ls, &problems)

	// Per-leaf: a=1 merged with b=2 must yield sum (3) or max (2), in
	// both merge directions.
	for _, l := range ls {
		a, b := zero(), zero()
		set(field(reflect.ValueOf(a).Elem(), l.path), 1)
		set(field(reflect.ValueOf(b).Elem(), l.path), 2)
		merge(a, b)
		got := get(field(reflect.ValueOf(a).Elem(), l.path))
		if got != 3 && got != 2 {
			problems = append(problems, fmt.Sprintf("%s: merge(1, 2) = %d, want 3 (sum) or 2 (max) — counter dropped?", l.name, got))
			continue
		}
		// Reverse direction must agree on the combined value.
		a2, b2 := zero(), zero()
		set(field(reflect.ValueOf(a2).Elem(), l.path), 2)
		set(field(reflect.ValueOf(b2).Elem(), l.path), 1)
		merge(a2, b2)
		if rev := get(field(reflect.ValueOf(a2).Elem(), l.path)); rev != got {
			problems = append(problems, fmt.Sprintf("%s: merge is not commutative: 1⊕2 = %d but 2⊕1 = %d", l.name, got, rev))
		}
	}

	// Identity: a fully populated value survives merging with zero in
	// both directions. Distinct per-leaf magnitudes catch cross-field
	// mixups.
	full := zero()
	for i, l := range ls {
		set(field(reflect.ValueOf(full).Elem(), l.path), int64(i%97)+1)
	}
	want := reflect.ValueOf(full).Elem().Interface()
	merge(full, zero())
	if got := reflect.ValueOf(full).Elem().Interface(); !reflect.DeepEqual(got, want) {
		problems = append(problems, fmt.Sprintf("merging the zero value changed the receiver:\n got %+v\nwant %+v", got, want))
	}
	z := zero()
	merge(z, full)
	if got := reflect.ValueOf(z).Elem().Interface(); !reflect.DeepEqual(got, want) {
		problems = append(problems, fmt.Sprintf("merging into the zero value lost data:\n got %+v\nwant %+v", got, want))
	}
	return problems
}

// ResetRow describes a re-armable type T, configured by C, to
// CheckReset.
type ResetRow[T, C any] struct {
	// Fresh reports what a value the type's constructor builds for c
	// observes in the use seeded by seed.
	Fresh func(c C, seed uint64) any
	// Reset re-arms v for c.
	Reset func(v *T, c C) error
	// Use drives v, armed for c, through the use seeded by seed and
	// returns what it observed. With abandon the law ignores what it
	// observed and re-arms v next, so it may stop part-way, leaving in
	// flight whatever it had started.
	Use func(v *T, c C, seed uint64, abandon bool) any
	// Configs are the configurations Reset must accept, Rejects those
	// it must refuse.
	Configs, Rejects []C
	// Cycle walks Configs once round, each after an abandoned use of
	// the next, instead of every ordered pair: for types whose use
	// costs milliseconds.
	Cycle bool
}

// CheckReset verifies the law every re-armable type obeys: a value
// re-armed by Reset computes exactly what a newly built one would. One
// value, starting from the zero value, is walked over every ordered
// pair (a, b) of the row's configurations: Reset(a), a use abandoned
// part-way, Reset(b), every reject refused, and a use that must observe
// what a fresh build for b does. A refused Reset must leave the value
// as it was, so the use after it still observes the fresh build's
// answer. Once every configuration has been seen, a whole cycle of
// Resets over them must allocate nothing. It returns one line per
// violation; an empty slice means the law holds.
func CheckReset[T, C any](row ResetRow[T, C]) []string {
	var problems []string
	v, n, seed := new(T), len(row.Configs), uint64(0)
	step := func(a, b C) {
		seed++
		err := row.Reset(v, a)
		if err == nil {
			row.Use(v, a, seed, true)
			err = row.Reset(v, b)
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("Reset to %s, then to %s: %v", brief(a), brief(b), err))
			return
		}
		for _, bad := range row.Rejects {
			if row.Reset(v, bad) == nil {
				problems = append(problems, fmt.Sprintf("Reset(%s) succeeded, want it refused", brief(bad)))
			}
		}
		if got, want := row.Use(v, b, seed, false), row.Fresh(b, seed); !reflect.DeepEqual(got, want) {
			problems = append(problems, fmt.Sprintf("%s re-armed over an abandoned use of %s observes\n  %s\nwhere a fresh build observes\n  %s",
				brief(b), brief(a), brief(got), brief(want)))
		}
	}
	for i, b := range row.Configs {
		for j, a := range row.Configs {
			if !row.Cycle || j == (i+1)%n {
				step(a, b)
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, c := range row.Configs {
			row.Reset(v, c)
		}
	})
	if allocs != 0 {
		problems = append(problems, fmt.Sprintf("a cycle of %d Resets over configurations already seen allocates %.0f times, want 0", n, allocs))
	}
	return problems
}

// brief renders x for a violation line, cut to a readable length.
func brief(x any) string {
	s := fmt.Sprintf("%+v", x)
	if r := []rune(s); len(r) > 160 {
		return string(r[:160]) + "…"
	}
	return s
}
