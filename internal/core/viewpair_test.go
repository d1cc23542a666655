package core_test

import (
	"sort"
	"strings"
	"testing"

	"mgba/internal/core"
	"mgba/internal/engine"
	"mgba/internal/sta"
)

// fakePair is a minimal registrable pair for registry tests.
type fakePair struct{ name string }

func (p fakePair) Name() string { return p.name }
func (p fakePair) Bind(*engine.Session, sta.Config, core.Options) (core.GoldenProvider, error) {
	return nil, nil
}

// TestLookupViewPairErrorListsSortedNames pins the error contract API
// layers rely on: an unknown pair name reports every registered pair,
// sorted, so the message can be surfaced verbatim as the valid choices.
func TestLookupViewPairErrorListsSortedNames(t *testing.T) {
	_, err := core.LookupViewPair("no-such-pair")
	if err == nil {
		t.Fatal("unknown pair name did not error")
	}
	names := core.ViewPairNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ViewPairNames not sorted: %v", names)
	}
	want := "registered: " + strings.Join(names, ", ")
	if !strings.Contains(err.Error(), want) {
		t.Errorf("lookup error %q does not list the sorted registry %q", err, want)
	}
}

// TestRegisterViewPairDuplicatePanics: registration is an init-time
// affair, and a silent overwrite would swap calibration semantics under a
// running daemon — a duplicate name must panic.
func TestRegisterViewPairDuplicatePanics(t *testing.T) {
	p := fakePair{name: "dup-test-pair"}
	core.RegisterViewPair(p)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("duplicate RegisterViewPair did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "dup-test-pair") {
			t.Errorf("panic %v does not name the duplicate pair", r)
		}
	}()
	core.RegisterViewPair(p)
}
