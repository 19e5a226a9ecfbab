//go:build !race

package oracle

// raceEnabled reports a race-detector build, under which the answer
// differentials sample the pairs of their larger graphs.
const raceEnabled = false
