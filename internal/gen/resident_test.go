package gen

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// heapBytes sums, by reflection, what v points at: each pointed-to value,
// each slice's backing array at its capacity, each string's bytes and each
// map's keys and values, recursively. An allocation of n bytes counts as
// size(n); a map's own buckets are not counted.
func heapBytes(v reflect.Value, size func(n int) int) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		return size(int(v.Type().Elem().Size())) + heapBytes(v.Elem(), size)
	case reflect.Slice:
		n := size(v.Cap() * int(v.Type().Elem().Size()))
		for i := range v.Len() {
			n += heapBytes(v.Index(i), size)
		}
		return n
	case reflect.String:
		if v.Len() < 16 {
			return v.Len() // the tiny allocator packs short strings together
		}
		return size(v.Len())
	case reflect.Map:
		n := v.Len() * int(v.Type().Key().Size()+v.Type().Elem().Size())
		for it := v.MapRange(); it.Next(); {
			n += heapBytes(it.Key(), size) + heapBytes(it.Value(), size)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += heapBytes(v.Field(i), size)
		}
		return n
	}
	return 0
}

// exactSize counts an allocation at the bytes asked for.
func exactSize(n int) int { return n }

// sizeClasses are the allocator's object sizes, ascending.
var sizeClasses = func() []int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var sizes []int
	for _, c := range ms.BySize[1:] {
		sizes = append(sizes, int(c.Size))
	}
	return sizes
}()

// allocSize is the heap an allocation of n bytes takes: its size class, or
// whole 8 KB pages past the largest class runtime.MemStats reports.
func allocSize(n int) int {
	if n == 0 {
		return 0
	}
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return (n + 8191) &^ 8191
}

// worldParts returns the heap w holds, by heapBytes at the allocator's
// sizes, and a line that breaks it down by part.
func worldParts(w *dataset.World) (int, string) {
	parts := []struct {
		name string
		v    any
	}{
		{"users", w.Users}, {"instances", w.Instances}, {"ASes", w.ASes},
		{"social", w.Social}, {"federation", w.Federation},
		{"traces", w.Traces}, {"cert outages", w.CertOutageDays},
	}
	sum := int(unsafe.Sizeof(*w))
	var line strings.Builder
	for _, p := range parts {
		n := heapBytes(reflect.ValueOf(p.v), allocSize)
		sum += n
		fmt.Fprintf(&line, "%s %.2f MB, ", p.name, float64(n)/(1<<20))
	}
	fmt.Fprintf(&line, "sum %.2f MB", float64(sum)/(1<<20))
	return sum, line.String()
}

// The loaded bench world (500 instances, 20K users, seed 1) holds what its
// parts hold and nothing else: the sum of their slices, strings and
// pointed-to structs, each at its size class, is within 2% of the heap
// that Load leaves behind. A user row is 24 bytes.
func TestWorldResidentBytes(t *testing.T) {
	if size := unsafe.Sizeof(dataset.User{}); size != 24 {
		t.Fatalf("a user row is %d bytes, want 24", size)
	}
	cfg := SmallConfig(1)
	cfg.Instances, cfg.Users = 500, 20_000
	var file bytes.Buffer
	if err := Generate(cfg).Save(&file); err != nil {
		t.Fatal(err)
	}
	// Two collections each, so what sync.Pools held in the first has gone.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := dataset.Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(&file) // live across both readings, so it cancels
	sum, parts := worldParts(w)
	t.Logf("bench world resident: %.3f MB after Load, parts %+.2f%% off it: %s",
		float64(heap)/(1<<20), 100*float64(int64(sum)-heap)/float64(heap), parts)
	if math.Abs(float64(int64(sum)-heap)) > 0.02*float64(heap) {
		t.Errorf("the world's parts sum to %d bytes, the heap Load left holds %d: over 2%% apart", sum, heap)
	}
}
