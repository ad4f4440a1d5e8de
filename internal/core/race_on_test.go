//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool deliberately
// drops puts and allocation pins on pooled paths do not hold.
const raceEnabled = true
