package a

func sink(v interface{})        {}
func sinkAll(vs ...interface{}) {}
func sinkInt(v int)             {}

type stringer interface{ String() string }

type thing int

func (thing) String() string { return "thing" }

// hot is the tagged function: every allocating construct must be flagged.
//
//pathsep:hotpath
func hot(xs []int, m map[string]int, th thing) {
	xs = append(xs, 1)    // want `append may allocate in hotpath function hot`
	_ = make([]int, 4)    // want `make allocates in hotpath function hot`
	_ = make(map[int]int) // want `make allocates in hotpath function hot`
	_ = map[int]int{1: 2} // want `map literal allocates in hotpath function hot`
	_ = []int{1, 2, 3}    // want `slice literal allocates in hotpath function hot`
	sink(42)              // want `argument converts int to interface`
	sinkAll(1, "two")     // want `argument converts int to interface` `argument converts string to interface`
	_ = interface{}(xs)   // want `conversion to interface interface\{\} boxes its operand in hotpath function hot`
	_ = stringer(th)      // want `conversion to interface a.stringer boxes its operand in hotpath function hot`
	_ = xs
}

// ok is tagged but clean: index arithmetic, calls with concrete
// parameters, interface-to-interface moves and nil never allocate.
//
//pathsep:hotpath
func ok(xs []int, s stringer) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	sinkInt(total)
	sink(s)   // interface to interface: no boxing
	sink(nil) // untyped nil: no boxing
	var ss []interface{}
	sinkAll(ss...) // slice passed through verbatim
	return total
}

// cold is untagged: the same constructs pass.
func cold(xs []int) {
	xs = append(xs, 1)
	_ = make([]int, 4)
	_ = map[int]int{1: 2}
	sink(42)
	_ = xs
}

func consume(window []int32) {}

// okWindow is the two-phase merge idiom from the flat query path: a
// fixed-size stack array buffers matches and is re-sliced per flush.
// Array variables and slicing them never allocate, so the tagged
// function stays clean.
//
//pathsep:hotpath
func okWindow(keys []int32) int32 {
	var mA, mB [16]int32
	nm := 0
	best := int32(0)
	for _, k := range keys {
		if nm == len(mA) {
			consume(mA[:nm])
			consume(mB[:nm])
			nm = 0
		}
		mA[nm], mB[nm] = k, k+1
		nm++
		if k > best {
			best = k
		}
	}
	consume(mA[:nm])
	var sched [8]uint64
	scratch := sched[:]
	for x := range scratch {
		scratch[x] = uint64(best)
	}
	return best + int32(scratch[0])
}

// untagged carries the directive with an argument after it, which is
// not the directive: it is not opted into the zero-alloc contract and
// allocates freely with no diagnostics.
//
//pathsep:hotpath fill
func untagged(n int) []float64 {
	lanes := make([]float64, n)
	for i := range lanes {
		lanes[i] = float64(i)
	}
	return append(lanes, 0)
}
