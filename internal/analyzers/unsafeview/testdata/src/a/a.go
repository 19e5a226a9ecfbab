// Package a exercises the unsafeview analyzer: unsafe.Slice belongs in
// the codec's view[T] alone.
package a

import (
	"errors"
	"unsafe"
)

type rec struct {
	a uint32
	b uint32
}

type img struct {
	buf  []byte
	recs []rec
}

func layoutTotal(n int) int { return 8 * n }

// clean: the codec's view is the one function that may build a typed
// view, and it refuses overrunning and misaligned spans.
func view[T, S any](src []S, off, count int) ([]T, error) {
	if count == 0 {
		return nil, nil
	}
	var t T
	var s S
	if off < 0 || count < 0 || off >= len(src) ||
		uintptr(count)*unsafe.Sizeof(t) > uintptr(len(src)-off)*unsafe.Sizeof(s) {
		return nil, errors.New("overrun")
	}
	if uintptr(unsafe.Pointer(&src[off]))%unsafe.Alignof(t) != 0 {
		return nil, errors.New("misaligned")
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&src[off])), count), nil
}

// clean: decoding through view, and other unsafe uses (alignment probes,
// sizes) that build no view.
func decodeGood(buf []byte, n int) (*img, error) {
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 || unsafe.Sizeof(rec{}) != 8 {
		return nil, errors.New("unaligned")
	}
	recs, err := view[rec](buf, 0, n)
	if err != nil {
		return nil, err
	}
	return &img{buf: buf, recs: recs}, nil
}

// The shapes the old dominance, escape and read-only rules reported each
// build their own view, and that alone is now the finding.
func decodeNoBounds(buf []byte, n int) *img {
	f := &img{}
	if uintptr(unsafe.Pointer(&buf[0]))%8 == 0 {
		f.buf = buf
		f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe.Slice outside the codec's view\[T\]`
	}
	return f
}

func decodeNoAlign(buf []byte, n int) *img {
	if len(buf) != layoutTotal(n) {
		return nil
	}
	f := &img{}
	f.buf = buf
	f.recs = unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe.Slice outside the codec's view\[T\]`
	return f
}

func sliceEscapes(buf []byte, n int) []rec {
	if len(buf) != layoutTotal(n) {
		return nil
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return nil
	}
	r := unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe.Slice outside the codec's view\[T\]`
	return r
}

func writeViewLocal(buf []byte, n int) {
	if len(buf) != layoutTotal(n) {
		return
	}
	if uintptr(unsafe.Pointer(&buf[0]))%8 != 0 {
		return
	}
	r := unsafe.Slice((*rec)(unsafe.Pointer(&buf[0])), n) // want `unsafe.Slice outside the codec's view\[T\]`
	r[0] = rec{}
}

// A method named view is not the codec's function.
func (f *img) view(n int) []rec {
	return unsafe.Slice((*rec)(unsafe.Pointer(&f.buf[0])), n) // want `unsafe.Slice outside the codec's view\[T\]`
}

// Nor is a package-level initializer, which has no enclosing function.
var backing [4]rec

var global = unsafe.Slice(&backing[0], 4) // want `unsafe.Slice outside the codec's view\[T\]`
