//go:build race

package ged

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random and allocation counts through it are not deterministic.
const raceEnabled = true
