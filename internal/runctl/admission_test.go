package runctl

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAdmitWithoutAdmissionIsNoOp(t *testing.T) {
	if err := Admit(context.Background()); err != nil {
		t.Fatalf("Admit on a bare context: %v", err)
	}
	if err := Admit(nil); err != nil {
		t.Fatalf("Admit on a nil context: %v", err)
	}
}

// TestAdmitSharesOneSlot pins the once-per-request contract: concurrent and
// repeated Admits of one request run acquire once, and Release gives the
// slot back exactly once.
func TestAdmitSharesOneSlot(t *testing.T) {
	var acquires, releases atomic.Int32
	ctx, adm := WithAdmission(context.Background(), func(context.Context) (func(), error) {
		acquires.Add(1)
		return func() { releases.Add(1) }, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := Admit(ctx); err != nil {
				t.Errorf("Admit: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := Admit(ctx); err != nil {
		t.Fatalf("repeated Admit: %v", err)
	}
	if !adm.Release() {
		t.Fatal("Release reports no admission after Admit")
	}
	if a, r := acquires.Load(), releases.Load(); a != 1 || r != 1 {
		t.Fatalf("acquire ran %d times, release %d times; want 1 and 1", a, r)
	}
	if err := Admit(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Admit after Release: %v, want ErrCancelled", err)
	}
	if releases.Load() != 1 {
		t.Fatal("late Admit re-acquired")
	}
}

func TestAdmitUnusedAndRefused(t *testing.T) {
	ctx, adm := WithAdmission(context.Background(), func(context.Context) (func(), error) {
		t.Error("acquire ran for a request that never admitted")
		return func() {}, nil
	})
	if adm.Release() {
		t.Fatal("Release reports an admission that was never asked for")
	}
	if err := Admit(ctx); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Admit after Release: %v", err)
	}

	refused := errors.New("full")
	ctx, adm = WithAdmission(context.Background(), func(context.Context) (func(), error) {
		return nil, refused
	})
	for i := 0; i < 2; i++ {
		if err := Admit(ctx); !errors.Is(err, refused) {
			t.Fatalf("Admit %d: %v, want the acquire error", i, err)
		}
	}
	if !adm.Release() {
		t.Fatal("a refused request did ask for admission")
	}
}
