//go:build race

package core

// raceEnabled gates allocation-count assertions: the race runtime
// instruments allocations and makes AllocsPerRun unreliable.
const raceEnabled = true
