package oracle

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestView pins view's refusals, which the codec's own calls, on tables
// and lanes it sized itself, never reach: a span overrunning its buffer
// by one element, an offset at or past the end, a negative count or
// offset, and a start misaligned for T. A zero count is a nil view;
// anything else is the exact in-place view.
func TestView(t *testing.T) {
	buf := make([]byte, 64)
	base := 0 // the first 8-aligned byte of buf
	for uintptr(unsafe.Pointer(&buf[base]))%8 != 0 {
		base++
	}
	for i, x := range []float64{1.5, -2.25, math.Inf(1)} {
		binary.NativeEndian.PutUint64(buf[base+8*i:], math.Float64bits(x))
	}
	words := make([]uint64, 2)

	refused := []struct {
		name string
		err  error
	}{
		{"float64 overrun by one", second(view[float64](buf[:base+16], base, 3))},
		{"float64 overrun by one past an offset", second(view[float64](buf[:base+24], base+8, 3))},
		{"int32 over uint64 overrun by one", second(view[int32](words, 1, 3))},
		{"offset at the end", second(view[float64](buf, len(buf), 1))},
		{"offset past the end", second(view[float64](buf, len(buf)+1, 1))},
		{"negative offset", second(view[float64](buf, -1, 1))},
		{"negative count", second(view[float64](buf, base, -1))},
		// count·8 wraps to 0 bytes: only the sign check refuses it.
		{"negative count wrapping to no bytes", second(view[float64](buf, base, math.MinInt/4))},
		{"float64 one byte off", second(view[float64](buf, base+1, 1))},
		{"float64 four bytes off", second(view[float64](buf, base+4, 1))},
		{"int32 two bytes off", second(view[int32](buf, base+2, 1))},
		{"int32 one byte off", second(view[int32](buf, base+1, 1))},
	}
	for _, c := range refused {
		if c.err == nil {
			t.Errorf("%s: view accepted the span", c.name)
		}
	}

	for _, off := range []int{base, len(buf), -1} {
		if v, err := view[float64](buf, off, 0); v != nil || err != nil {
			t.Errorf("view(off %d, count 0) = %v, %v; want nil, nil", off, v, err)
		}
	}

	v, err := view[float64](buf, base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 3 || cap(v) != 3 || &v[0] != (*float64)(unsafe.Pointer(&buf[base])) {
		t.Fatalf("view has len %d cap %d at %p; want 3, 3 at %p", len(v), cap(v), &v[0], &buf[base])
	}
	if v[0] != 1.5 || v[1] != -2.25 || !math.IsInf(v[2], 1) {
		t.Fatalf("view reads %v", v)
	}
	w, err := view[int32](buf, base+4, 2) // 4-aligned is enough for int32
	if err != nil || len(w) != 2 || &w[0] != (*int32)(unsafe.Pointer(&buf[base+4])) {
		t.Fatalf("int32 view at a 4-aligned offset: %v, %v", w, err)
	}
	ww, err := view[int32](words, 1, 2) // exactly the last word
	if err != nil || len(ww) != 2 || &ww[0] != (*int32)(unsafe.Pointer(&words[1])) {
		t.Fatalf("int32 view of the last word: %v, %v", ww, err)
	}
}

func second[T any](_ T, err error) error { return err }
