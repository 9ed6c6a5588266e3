package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"explink/internal/runctl"
)

// slots is a counting semaphore standing in for the daemon's gate. Its
// acquire func can announce each caller that starts waiting for a slot.
type slots struct {
	sem     chan struct{}
	asked   atomic.Int32
	waiting chan struct{} // receives one value per acquire entered, if non-nil
}

func newSlots(n int) *slots { return &slots{sem: make(chan struct{}, n)} }

func (s *slots) acquire(ctx context.Context) (func(), error) {
	s.asked.Add(1)
	if s.waiting != nil {
		s.waiting <- struct{}{}
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, runctl.Cancelled(ctx)
	}
}

// admitted returns a request context carrying a lazy admission on s.
func (s *slots) admitted() (context.Context, *runctl.Admission) {
	return runctl.WithAdmission(context.Background(), s.acquire)
}

func fakePlacement(n int) StoredPlacement {
	return StoredPlacement{Algo: DCSA, C: 1, N: n, Evals: int64(n)}
}

// TestStoreAdmitsOnlyColdCompute pins which lookups take admission: a miss
// admits once before computing; a memory hit, a disk hit and a wait on
// another caller's in-flight compute never do.
func TestStoreAdmitsOnlyColdCompute(t *testing.T) {
	dir := t.TempDir()
	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gate := newSlots(1)

	ctx, adm := gate.admitted()
	if _, cached, err := st.GetOrCompute(ctx, "k", func() (StoredPlacement, error) { return fakePlacement(4), nil }); err != nil || cached {
		t.Fatalf("cold lookup: cached=%v err=%v", cached, err)
	}
	if !adm.Release() || gate.asked.Load() != 1 {
		t.Fatalf("cold lookup asked for admission %d times, want 1", gate.asked.Load())
	}

	ctx, adm = gate.admitted()
	if _, cached, err := st.GetOrCompute(ctx, "k", nil); err != nil || !cached {
		t.Fatalf("memory hit: cached=%v err=%v", cached, err)
	}
	if adm.Release() {
		t.Fatal("memory hit asked for admission")
	}

	disk, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, adm = gate.admitted()
	if _, cached, err := disk.GetOrCompute(ctx, "k", nil); err != nil || !cached {
		t.Fatalf("disk hit: cached=%v err=%v", cached, err)
	}
	if adm.Release() {
		t.Fatal("disk hit asked for admission")
	}
	if c := disk.Counters(); c.DiskHits != 1 || c.Solves != 0 {
		t.Fatalf("disk store counters %s", c)
	}

	// A single-flight waiter shares the owner's compute without a slot.
	enter, finish := make(chan struct{}), make(chan struct{})
	ownerCtx, ownerAdm := gate.admitted()
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrCompute(ownerCtx, "w", func() (StoredPlacement, error) {
			close(enter)
			<-finish
			return fakePlacement(5), nil
		})
		ownerDone <- err
	}()
	<-enter
	waitCtx, waitAdm := gate.admitted()
	waitDone := make(chan error, 1)
	go func() {
		_, cached, err := st.GetOrCompute(waitCtx, "w", nil)
		if err == nil && !cached {
			err = errors.New("waiter was not answered from the owner's compute")
		}
		waitDone <- err
	}()
	// Give the waiter time to block on the owner's in-flight marker, so the
	// wait path is the one exercised; if it arrives late it is a memory hit,
	// which must not admit either.
	time.Sleep(10 * time.Millisecond)
	close(finish)
	if err := <-ownerDone; err != nil {
		t.Fatal(err)
	}
	if err := <-waitDone; err != nil {
		t.Fatal(err)
	}
	ownerAdm.Release()
	if waitAdm.Release() {
		t.Fatal("single-flight waiter asked for admission")
	}
}

// TestStoreOwnerHoldsAdmissionNoDeadlock is the one-slot deadlock scenario,
// made deterministic. Request B (a cold solve of key K) waits for the only
// slot, which request A (a simulation that must solve K for its topology)
// already holds. A then looks K up. Because B asks for admission before it
// registers as K's owner, A finds no owner, computes K itself and finishes;
// B then gets the slot and is answered from memory. Were admission taken
// inside compute, B would own K while queued and A would wait on B forever.
func TestStoreOwnerHoldsAdmissionNoDeadlock(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	gate := newSlots(1)
	gate.waiting = make(chan struct{}, 2)

	ctxA, admA := gate.admitted()
	if err := runctl.Admit(ctxA); err != nil {
		t.Fatal(err)
	}
	<-gate.waiting // A's own (granted) acquire

	ctxB, admB := gate.admitted()
	doneB := make(chan error, 1)
	go func() {
		_, cached, err := st.GetOrCompute(ctxB, "K", func() (StoredPlacement, error) {
			return StoredPlacement{}, errors.New("B computed K although A did")
		})
		if err == nil && !cached {
			err = errors.New("B was not answered from cache")
		}
		doneB <- err
	}()
	<-gate.waiting // B is queued for the slot A holds

	doneA := make(chan error, 1)
	go func() {
		_, _, err := st.GetOrCompute(ctxA, "K", func() (StoredPlacement, error) { return fakePlacement(4), nil })
		admA.Release()
		doneA <- err
	}()
	for name, done := range map[string]chan error{"A": doneA, "B": doneB} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished: deadlock between a queued request and the slot holder", name)
		}
	}
	admB.Release()
	if c := st.Counters(); c.Solves != 1 || c.Hits != 1 {
		t.Fatalf("counters %s, want solves=1 hits=1", c)
	}
}

// TestStoreColdComputeBoundedBySlots checks that cold computes never exceed
// the slot count: each request owns its key only while holding its slot.
func TestStoreColdComputeBoundedBySlots(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	const maxSlots, requests = 2, 8
	gate := newSlots(maxSlots)
	var (
		mu            sync.Mutex
		running, peak int
		wg            sync.WaitGroup
	)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, adm := gate.admitted()
			defer adm.Release()
			_, _, err := st.GetOrCompute(ctx, fmt.Sprintf("key-%d", i), func() (StoredPlacement, error) {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				return fakePlacement(4), nil
			})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if peak > maxSlots {
		t.Fatalf("%d cold computes ran at once with %d slots", peak, maxSlots)
	}
	if c := st.Counters(); c.Solves != requests {
		t.Fatalf("counters %s, want %d solves", c, requests)
	}
}

// TestStoreRefusedAdmissionComputesNothing: a miss whose admission is
// refused returns the refusal, registers no owner and caches nothing.
func TestStoreRefusedAdmissionComputesNothing(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	refused := errors.New("overloaded")
	ctx, adm := runctl.WithAdmission(context.Background(), func(context.Context) (func(), error) {
		return nil, refused
	})
	defer adm.Release()
	_, _, err = st.GetOrCompute(ctx, "k", func() (StoredPlacement, error) {
		t.Error("compute ran without admission")
		return fakePlacement(4), nil
	})
	if !errors.Is(err, refused) {
		t.Fatalf("refused lookup: %v", err)
	}
	if _, cached, err := st.GetOrCompute(context.Background(), "k", func() (StoredPlacement, error) { return fakePlacement(4), nil }); err != nil || cached {
		t.Fatalf("retry without a gate: cached=%v err=%v", cached, err)
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != 0 {
		t.Fatalf("counters %s", c)
	}
}
