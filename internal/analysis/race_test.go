//go:build race

package analysis

// raceEnabled reports a -race build, whose shadow memory says nothing
// about what the code itself keeps live.
const raceEnabled = true
