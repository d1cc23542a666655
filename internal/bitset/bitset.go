// Package bitset holds the sweep primitives of the cone walks in
// internal/graph and internal/engine: a bitset over topological positions
// (or flip-flop positions) that a sweep empties in ascending or
// descending order while it marks new positions ahead of itself.
package bitset

import "math/bits"

// Mark sets position i.
func Mark(set []uint64, i int) { set[i>>6] |= 1 << (uint(i) & 63) }

// PopLow clears and returns the lowest set position, or -1 when the set
// is empty. *w is the sweep's word cursor, starting at 0: no position
// below it may be set again during the sweep.
func PopLow(set []uint64, w *int) int {
	for ; *w < len(set); *w++ {
		if x := set[*w]; x != 0 {
			b := bits.TrailingZeros64(x)
			set[*w] = x &^ (1 << uint(b))
			return *w<<6 | b
		}
	}
	return -1
}

// PopHigh is PopLow for a descending sweep: *w starts at len(set)-1 and
// no position above it may be set again during the sweep.
func PopHigh(set []uint64, w *int) int {
	for ; *w >= 0; *w-- {
		if x := set[*w]; x != 0 {
			b := 63 - bits.LeadingZeros64(x)
			set[*w] = x &^ (1 << uint(b))
			return *w<<6 | b
		}
	}
	return -1
}
