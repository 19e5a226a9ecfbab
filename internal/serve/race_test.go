//go:build race

package serve

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random quarter of what is Put into it.
const raceEnabled = true
