//go:build race

package closure_test

// raceEnabled shortens the seeded sweeps: the race runtime slows a
// closure run about tenfold.
const raceEnabled = true
