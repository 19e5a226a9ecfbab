// Package a pins the ssaflow summaries: the test's reporting analyzer
// prints every fact of each declared function at its name.
package a

import "sort"

// ParamUses: a parameter passed to an out-of-package call.
func sortInts(xs []int) { // want `^uses p0: Ints@0$` `^flow p0: Ints@0$`
	sort.Ints(xs)
}

// ParamFlow descends through in-package callees to the terminal call.
func outer(xs []int) { // want `^uses p0: inner@0$` `^flow p0: Ints@0$`
	inner(xs)
}

func inner(ys []int) { // want `^uses p0: Ints@0$` `^flow p0: Ints@0$`
	sort.Ints(ys)
}

// ParamSunk: each way a value escapes sideways.
type holder struct{ buf []byte }

var global []byte

func store(h *holder, b []byte) { // want `^sunk p1: stored into a field, slot or map$` `^flow p1: sunk stored into a field, slot or map$`
	h.buf = b
}

func keep(b []byte) { // want `^sunk p0: stored in a package-level variable$` `^flow p0: sunk stored in a package-level variable$`
	global = b
}

func send(ch chan []byte, b []byte) { // want `^sunk p1: sent on a channel$` `^flow p1: sunk sent on a channel$`
	ch <- b
}

func capture(b []byte) func() []byte { // want `^sunk p0: captured by a function literal$` `^flow p0: sunk captured by a function literal$`
	return func() []byte { return b }
}

func viaValue(f func([]byte), b []byte) { // want `^sunk p1: passed through a function value$` `^flow p1: sunk passed through a function value$`
	f(b)
}

// A goroutine launch both sinks the value and records the call.
func launch(b []byte) { // want `^uses p0: keep@0$` `^sunk p0: launched in a goroutine$` `^flow p0: sunk launched in a goroutine$`
	go keep(b)
}

// A sink met below an in-package call is the flow's sink; a variadic
// argument past the last parameter maps onto the variadic one.
func hand(b []byte) { // want `^uses p0: many@2$` `^flow p0: sunk stored in a package-level variable$`
	many(1, nil, b)
}

func many(n int, bs ...[]byte) { // want `^uses p1: keep@0$` `^flow p1: sunk stored in a package-level variable$`
	for _, b := range bs {
		keep(b)
	}
}

// Returns: a parameter alias, directly or through locals. viaLocals
// binds d before c carries b, so only the locals fixpoint sees that d
// does; a call's result aliases nothing.
func id(b []byte) []byte { // want `^returns r0: p0$` `^flow p0: returned$`
	return b[:len(b)]
}

func viaLocals(b []byte) ([]byte, []byte) { // want `^uses p0: id@0$` `^returns r0: p0$` `^flow p0: returned$`
	var c, d []byte
	for i := 0; i < 2; i++ {
		d = c
		c = b
	}
	return d, id(b)
}

// The cycle guard: ping and pong call each other, and ParamFlow still
// ends, with each reaching sort.Ints once.
func ping(xs []int) { // want `^uses p0: pong@0$` `^flow p0: Ints@0$`
	if len(xs) > 1 {
		pong(xs)
	}
}

func pong(xs []int) { // want `^uses p0: Ints@0, ping@0$` `^flow p0: Ints@0$`
	sort.Ints(xs)
	ping(xs[1:])
}

// The depth cap of 16: d17 sorts its argument 17 calls below d0, so d1's
// flow reaches the sort and d0's is cut short.
func d0(xs []int)  { d1(xs) }        // want `^uses p0: d1@0$`
func d1(xs []int)  { d2(xs) }        // want `^uses p0: d2@0$` `^flow p0: Ints@0$`
func d2(xs []int)  { d3(xs) }        // want `^uses p0: d3@0$` `^flow p0: Ints@0$`
func d3(xs []int)  { d4(xs) }        // want `^uses p0: d4@0$` `^flow p0: Ints@0$`
func d4(xs []int)  { d5(xs) }        // want `^uses p0: d5@0$` `^flow p0: Ints@0$`
func d5(xs []int)  { d6(xs) }        // want `^uses p0: d6@0$` `^flow p0: Ints@0$`
func d6(xs []int)  { d7(xs) }        // want `^uses p0: d7@0$` `^flow p0: Ints@0$`
func d7(xs []int)  { d8(xs) }        // want `^uses p0: d8@0$` `^flow p0: Ints@0$`
func d8(xs []int)  { d9(xs) }        // want `^uses p0: d9@0$` `^flow p0: Ints@0$`
func d9(xs []int)  { d10(xs) }       // want `^uses p0: d10@0$` `^flow p0: Ints@0$`
func d10(xs []int) { d11(xs) }       // want `^uses p0: d11@0$` `^flow p0: Ints@0$`
func d11(xs []int) { d12(xs) }       // want `^uses p0: d12@0$` `^flow p0: Ints@0$`
func d12(xs []int) { d13(xs) }       // want `^uses p0: d13@0$` `^flow p0: Ints@0$`
func d13(xs []int) { d14(xs) }       // want `^uses p0: d14@0$` `^flow p0: Ints@0$`
func d14(xs []int) { d15(xs) }       // want `^uses p0: d15@0$` `^flow p0: Ints@0$`
func d15(xs []int) { d16(xs) }       // want `^uses p0: d16@0$` `^flow p0: Ints@0$`
func d16(xs []int) { d17(xs) }       // want `^uses p0: d17@0$` `^flow p0: Ints@0$`
func d17(xs []int) { sort.Ints(xs) } // want `^uses p0: Ints@0$` `^flow p0: Ints@0$`
