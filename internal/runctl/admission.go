package runctl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Admission is a lazily acquired, once-per-request admission: a server
// attaches one to a request's context with WithAdmission, and the request
// takes its slot only when it first calls Admit, i.e. when it is about to do
// cold compute. Cheap work (cache hits, analytic evaluation) never calls
// Admit and never waits for a slot.
type Admission struct {
	acquire  func(context.Context) (release func(), err error)
	once     sync.Once
	asked    bool
	release  func()
	err      error
	released atomic.Bool
}

type admissionKey struct{}

// errReleased fails an Admit that arrives after its request finished.
var errReleased = fmt.Errorf("runctl: admission already released: %w", ErrCancelled)

// WithAdmission returns a child of ctx carrying a fresh lazy admission backed
// by acquire, plus the admission itself for its owner to Release. acquire
// runs at most once, on the first Admit; on success its release func is
// held until Release.
func WithAdmission(ctx context.Context, acquire func(context.Context) (release func(), err error)) (context.Context, *Admission) {
	a := &Admission{acquire: acquire}
	return context.WithValue(ctx, admissionKey{}, a), a
}

// Admit takes the admission carried by ctx, blocking until it is granted or
// refused. Every Admit of one request — repeated, nested or concurrent —
// shares the outcome of the first: one slot per request, or one error.
// Admit is a no-op returning nil when ctx carries no admission (or is nil,
// which the solvers accept), so code running outside a server (CLIs,
// experiments, fabric workers) is unaffected.
func Admit(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(admissionKey{}).(*Admission)
	if a == nil {
		return nil
	}
	a.once.Do(func() {
		a.asked = true
		a.release, a.err = a.acquire(ctx)
	})
	if a.released.Load() {
		return errReleased
	}
	return a.err
}

// Release ends the admission once the request's work has finished; call it
// exactly once. It gives back the slot if one was taken, and any later Admit
// fails with an error matching ErrCancelled. It reports whether the request
// ever asked for admission; false means the request completed without
// touching the gate.
func (a *Admission) Release() (asked bool) {
	// Consuming the once keeps a late Admit from acquiring, and orders the
	// reads of asked/release below after any acquire that did run.
	a.once.Do(func() {})
	a.released.Store(true)
	if a.release != nil {
		a.release()
	}
	return a.asked
}
