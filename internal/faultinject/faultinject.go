// Package faultinject provides a process-global hook registry used to
// inject numerical and I/O faults into the calibration pipeline for
// testing. Every hook point compiled into production code (solver, netio,
// aocv) first consults a single atomic flag, so the disarmed cost is one
// relaxed atomic load and a branch — no locks, no allocations.
//
// The registry is intended for tests only. Tests that arm hooks must not
// run in parallel with other tests that exercise the hooked code paths;
// the fault suites in this repository serialise themselves accordingly.
package faultinject

import (
	"io"
	"sync"
	"sync/atomic"
)

// Point identifies a hook location compiled into production code.
type Point int

const (
	// SolverStart fires at solver entry. An error hook here makes the
	// solver fail immediately, as if a numerical precondition failed.
	SolverStart Point = iota
	// SolverGradient fires after each gradient evaluation with the
	// gradient vector; a slice hook may corrupt it in place (e.g. NaN).
	SolverGradient
	// SolverStep fires with the proposed step length before it is
	// applied; a float hook may replace it (e.g. with a divergent step).
	SolverStep
	// NetioRead wraps the reader passed to netio.Load.
	NetioRead
	// NetioWrite wraps the writer passed to netio.Save.
	NetioWrite
	// AOCVLookup fires with each interpolated derate; a float hook may
	// replace it (e.g. with NaN) to simulate a corrupt derate table.
	AOCVLookup
	// PathEnum fires once per endpoint enumerated by the PBA k-worst path
	// search, carrying the endpoint's D.FFs position. It is observation
	// only — the hook's return value is discarded — and exists so tests
	// can count enumerations or trigger a context cancellation in the
	// middle of an incremental recalibration.
	PathEnum
	// RecalibrateRow fires with the values of every Eq. (9) row an
	// incremental recalibration rebuilds from its cache, before the row is
	// stored; a slice hook may corrupt it (e.g. NaN), simulating a bad
	// incremental assembly.
	RecalibrateRow
	// NetioSyncDir fires before netio's atomic writer fsyncs the parent
	// directory after the rename; an error hook simulates a directory
	// sync failing in the rename-then-crash window.
	NetioSyncDir
	// ServeAdmit fires when the calibration daemon admits a request,
	// before any work is done; an error hook simulates admission-layer
	// failure (the server answers 503 + Retry-After, never a hang).
	ServeAdmit
	// ServeEvict fires when the session registry evicts a session (LRU
	// capacity or idle timeout), before the eviction snapshot; an error
	// hook makes the pre-eviction snapshot fail, simulating eviction
	// racing a full disk.
	ServeEvict
	// ServeSnapshot fires before the daemon writes a session's full
	// checkpoint (its first persist, a compaction, eviction or drain); an
	// error hook simulates a crash window in which that write never
	// reaches disk.
	ServeSnapshot
	// ServeJournal fires before the daemon appends a session's journal
	// record; an error hook simulates a crash window in which recent
	// batches never reach disk (the session stays dirty and is retried).
	ServeJournal
	numPoints
)

// FloatHook rewrites a scalar value at a hook point.
type FloatHook func(v float64) float64

// SliceHook may mutate the given vector in place.
type SliceHook func(v []float64)

// ErrHook returns a non-nil error to trigger a failure at a hook point.
type ErrHook func() error

// ReaderHook wraps a reader (e.g. to truncate or corrupt the stream).
type ReaderHook func(r io.Reader) io.Reader

// WriterHook wraps a writer (e.g. to fail partway through a write).
type WriterHook func(w io.Writer) io.Writer

var (
	armed atomic.Bool

	mu      sync.RWMutex
	floats  map[Point]FloatHook
	slices  map[Point]SliceHook
	errs    map[Point]ErrHook
	readers map[Point]ReaderHook
	writers map[Point]WriterHook
)

// Armed reports whether any hook is installed. Production hook points use
// it as a fast-path guard before taking the registry lock.
func Armed() bool { return armed.Load() }

func rearm() {
	armed.Store(len(floats)+len(slices)+len(errs)+len(readers)+len(writers) > 0)
}

// SetFloat installs a scalar-rewriting hook at p. A nil hook removes it.
func SetFloat(p Point, h FloatHook) {
	mu.Lock()
	defer mu.Unlock()
	if floats == nil {
		floats = make(map[Point]FloatHook)
	}
	if h == nil {
		delete(floats, p)
	} else {
		floats[p] = h
	}
	rearm()
}

// SetSlice installs a vector-mutating hook at p. A nil hook removes it.
func SetSlice(p Point, h SliceHook) {
	mu.Lock()
	defer mu.Unlock()
	if slices == nil {
		slices = make(map[Point]SliceHook)
	}
	if h == nil {
		delete(slices, p)
	} else {
		slices[p] = h
	}
	rearm()
}

// SetError installs an error hook at p. A nil hook removes it.
func SetError(p Point, h ErrHook) {
	mu.Lock()
	defer mu.Unlock()
	if errs == nil {
		errs = make(map[Point]ErrHook)
	}
	if h == nil {
		delete(errs, p)
	} else {
		errs[p] = h
	}
	rearm()
}

// SetReader installs a reader-wrapping hook at p. A nil hook removes it.
func SetReader(p Point, h ReaderHook) {
	mu.Lock()
	defer mu.Unlock()
	if readers == nil {
		readers = make(map[Point]ReaderHook)
	}
	if h == nil {
		delete(readers, p)
	} else {
		readers[p] = h
	}
	rearm()
}

// SetWriter installs a writer-wrapping hook at p. A nil hook removes it.
func SetWriter(p Point, h WriterHook) {
	mu.Lock()
	defer mu.Unlock()
	if writers == nil {
		writers = make(map[Point]WriterHook)
	}
	if h == nil {
		delete(writers, p)
	} else {
		writers[p] = h
	}
	rearm()
}

// Reset removes every installed hook and disarms the registry.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	floats = nil
	slices = nil
	errs = nil
	readers = nil
	writers = nil
	armed.Store(false)
}

// Float64 applies the scalar hook at p, if armed and installed.
func Float64(p Point, v float64) float64 {
	if !armed.Load() {
		return v
	}
	mu.RLock()
	h := floats[p]
	mu.RUnlock()
	if h == nil {
		return v
	}
	return h(v)
}

// Slice applies the vector hook at p, if armed and installed.
func Slice(p Point, v []float64) {
	if !armed.Load() {
		return
	}
	mu.RLock()
	h := slices[p]
	mu.RUnlock()
	if h != nil {
		h(v)
	}
}

// Err returns the injected error at p, or nil.
func Err(p Point) error {
	if !armed.Load() {
		return nil
	}
	mu.RLock()
	h := errs[p]
	mu.RUnlock()
	if h == nil {
		return nil
	}
	return h()
}

// Reader wraps r with the hook at p, if armed and installed.
func Reader(p Point, r io.Reader) io.Reader {
	if !armed.Load() {
		return r
	}
	mu.RLock()
	h := readers[p]
	mu.RUnlock()
	if h == nil {
		return r
	}
	return h(r)
}

// Writer wraps w with the hook at p, if armed and installed.
func Writer(p Point, w io.Writer) io.Writer {
	if !armed.Load() {
		return w
	}
	mu.RLock()
	h := writers[p]
	mu.RUnlock()
	if h == nil {
		return w
	}
	return h(w)
}
