// Package fingerprint derives stable content digests of plain
// configuration structs. The device layer keys its simulation cache on
// these digests, so the one property that matters is soundness: two
// configurations with any differing field must hash differently (up to
// 64-bit collisions), including fields added after the cache was
// written. Hash therefore walks every exported field reflectively —
// a new Config field changes the digest automatically instead of
// silently aliasing cache entries — and panics on field kinds it cannot
// canonicalize (pointers, maps, funcs, channels), forcing an explicit
// decision when a config struct grows a non-value field.
//
// Digests are stable within a process and across processes of the same
// build, which is all the in-memory caches need. They are not a
// serialization format: renaming or reordering fields changes the
// digest, which errs toward cache misses, never toward aliasing.
package fingerprint

import (
	"fmt"
	"math"
	"reflect"
)

// FNV-1a parameters (64-bit).
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash digests the concatenation of its arguments. Arguments must be
// values (or structs of values): bools, integers, floats, strings,
// arrays, slices and nested structs of those.
func Hash(vs ...any) uint64 {
	h := uint64(offset64)
	for _, v := range vs {
		h = hashValue(h, reflect.ValueOf(v), "")
	}
	return h
}

func hashValue(h uint64, v reflect.Value, path string) uint64 {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return hashUint64(h, 1)
		}
		return hashUint64(h, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return hashUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return hashUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		return hashUint64(h, math.Float64bits(v.Float()))
	case reflect.String:
		return hashString(h, v.String())
	case reflect.Array, reflect.Slice:
		h = hashUint64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
		return h
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("fingerprint: unexported field %s.%s%s cannot be digested", t.Name(), path, f.Name))
			}
			// The field name separates fields so adjacent same-typed
			// fields cannot alias under swapped values.
			h = hashString(h, f.Name)
			h = hashValue(h, v.Field(i), path+f.Name+".")
		}
		return h
	default:
		panic(fmt.Sprintf("fingerprint: unsupported kind %s at %s (type %s): make the field a value type or hash it explicitly", v.Kind(), path, v.Type()))
	}
}

func hashUint64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime64
		x >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	h = hashUint64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
