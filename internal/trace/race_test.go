//go:build race

package trace

// raceEnabled reports a -race build, whose sync.Pool drops pooled objects
// at random, so allocation counts there say nothing about the code.
const raceEnabled = true
