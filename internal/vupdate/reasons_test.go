package vupdate

import (
	"errors"
	"fmt"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
)

// The Reason constants index obs.Registry.Rejects; the slug table lives
// in obs (so snapshots render without importing vupdate). This test is
// the alignment contract between the two packages.
func TestReasonNamesAlignWithObs(t *testing.T) {
	if int(numReasons) != obs.NumRejectReasons {
		t.Fatalf("vupdate defines %d reasons, obs sizes counters for %d", numReasons, obs.NumRejectReasons)
	}
	want := map[Reason]string{
		ReasonUnknown:          "unknown",
		ReasonNoInstance:       "no-instance",
		ReasonTranslatorPolicy: "translator-policy",
		ReasonIntegrity:        "integrity",
		ReasonAmbiguousKey:     "ambiguous-key",
		ReasonConflict:         "conflict",
	}
	if len(want) != int(numReasons) {
		t.Fatalf("test covers %d reasons, package defines %d", len(want), numReasons)
	}
	for r, slug := range want {
		if r.String() != slug {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), slug)
		}
	}
}

// OpKind values index obs.Registry.OpsByObject; snapshot keys must match the
// kinds' own names.
func TestOpKindsAlignWithObs(t *testing.T) {
	if obs.NumOpKinds != 3 {
		t.Fatalf("obs.NumOpKinds = %d, want 3", obs.NumOpKinds)
	}
	r := obs.NewRegistry()
	for _, k := range []OpKind{OpInsert, OpDelete, OpReplace} {
		r.OpsByObject[k].At(0).Inc()
		key := "vupdate.ops." + k.String()
		if got := r.Snapshot().Counter(key); got != 1 {
			t.Errorf("after OpsByObject[%s] increment: snapshot %s = %d, want 1", k, key, got)
		}
	}
}

// Every tagged rejection must keep satisfying errors.Is(err, ErrRejected)
// and keep the historical message format — typed reasons are an addition,
// not a breaking change.
func TestRejectionWrapsErrRejected(t *testing.T) {
	for r := ReasonUnknown; r < numReasons; r++ {
		err := rejectAs(r, "vupdate: X: context %d", int(r))
		if !errors.Is(err, ErrRejected) {
			t.Errorf("rejectAs(%s) does not wrap ErrRejected", r)
		}
		if got := ReasonOf(err); got != r {
			t.Errorf("ReasonOf(rejectAs(%s)) = %s", r, got)
		}
		want := fmt.Sprintf("vupdate: X: context %d: view-object update rejected by translator", int(r))
		if err.Error() != want {
			t.Errorf("message = %q, want %q", err.Error(), want)
		}
	}
}

func TestReasonOfClassification(t *testing.T) {
	// The default reject() is a translator-policy rejection.
	if got := ReasonOf(reject("vupdate: X: not allowed")); got != ReasonTranslatorPolicy {
		t.Errorf("ReasonOf(reject(...)) = %s, want translator-policy", got)
	}
	// A wrapped rejection keeps its reason through fmt.Errorf layers.
	wrapped := fmt.Errorf("outer: %w", rejectAs(ReasonConflict, "inner"))
	if got := ReasonOf(wrapped); got != ReasonConflict {
		t.Errorf("ReasonOf(wrapped) = %s, want conflict", got)
	}
	// Missing tuples classify as no-instance even without ErrRejected.
	missing := fmt.Errorf("vupdate: X: no instance: %w", reldb.ErrNoSuchTuple)
	if got := ReasonOf(missing); got != ReasonNoInstance {
		t.Errorf("ReasonOf(ErrNoSuchTuple) = %s, want no-instance", got)
	}
	// A bare ErrRejected wrap (no Rejection value) is unknown.
	bare := fmt.Errorf("legacy: %w", ErrRejected)
	if got := ReasonOf(bare); got != ReasonUnknown {
		t.Errorf("ReasonOf(bare wrap) = %s, want unknown", got)
	}
	// Infrastructure errors are unknown too; callers gate on errors.Is.
	if got := ReasonOf(errors.New("disk on fire")); got != ReasonUnknown {
		t.Errorf("ReasonOf(other) = %s, want unknown", got)
	}
}
