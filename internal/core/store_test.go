package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"explink/internal/model"
	"explink/internal/runctl"
	"explink/internal/stats"
)

func quickSolver(n int) *Solver {
	s := NewSolver(model.DefaultConfig(n))
	s.Sched = s.Sched.WithMoves(800)
	return s
}

// Every input the issue names for the canonical key — n, C, seed, budget
// (Quick schedules), method and packet mix — must produce a distinct key, or
// the cache would alias solves that can differ.
func TestStoreKeyCanonicalization(t *testing.T) {
	base := func() *Solver { return quickSolver(8) }
	mutations := map[string]func() (s *Solver, c int, algo Algorithm){
		"base":     func() (*Solver, int, Algorithm) { return base(), 4, DCSA },
		"n":        func() (*Solver, int, Algorithm) { return quickSolver(16), 4, DCSA },
		"c":        func() (*Solver, int, Algorithm) { return base(), 2, DCSA },
		"algo":     func() (*Solver, int, Algorithm) { return base(), 4, OnlySA },
		"initonly": func() (*Solver, int, Algorithm) { return base(), 4, InitOnly },
		"seed": func() (*Solver, int, Algorithm) {
			s := base()
			s.Seed = 2
			return s, 4, DCSA
		},
		"budget": func() (*Solver, int, Algorithm) {
			s := base()
			s.Sched = s.Sched.WithMoves(1500) // the Quick-vs-full budget split
			return s, 4, DCSA
		},
		"stop": func() (*Solver, int, Algorithm) {
			s := base()
			s.Sched.StopAfterNoImprove = 1000 // fig12's convergence measurement
			return s, 4, DCSA
		},
		"mix": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.Mix = []model.PacketClass{{Name: "uni", Bits: 256, Frac: 1}}
			return s, 4, DCSA
		},
		"bw": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.BW.BaseWidth = 1024 // fig11's bandwidth scenarios
			return s, 4, DCSA
		},
		"worst": func() (*Solver, int, Algorithm) {
			s := base()
			s.WorstWeight = 0.5
			return s, 4, DCSA
		},
		"params": func() (*Solver, int, Algorithm) {
			s := base()
			s.Cfg.Params.RouterDelay = 4
			return s, 4, DCSA
		},
	}
	seen := map[string]string{}
	for name, mk := range mutations {
		s, c, algo := mk()
		key := s.rowKey(c, algo)
		if prev, dup := seen[key]; dup {
			t.Fatalf("key for %q aliases %q:\n%s", name, prev, key)
		}
		seen[key] = name
	}
	// Workers must NOT be part of the key: output is worker-count invariant.
	a, b := base(), base()
	b.Workers = 1
	if a.rowKey(4, DCSA) != b.rowKey(4, DCSA) {
		t.Fatal("Workers leaked into the cache key")
	}
}

func TestStoreLineKeyDistinctFromRowAndWeights(t *testing.T) {
	s := quickSolver(8)
	w0 := make([][]float64, 8)
	w1 := make([][]float64, 8)
	for i := range w0 {
		w0[i] = make([]float64, 8)
		w1[i] = make([]float64, 8)
	}
	w1[0][7] = 1.5
	keys := []string{
		s.rowKey(4, DCSA),
		s.lineKey(4, DCSA, w0, 0),
		s.lineKey(4, DCSA, w0, 1), // same weights, different line salt
		s.lineKey(4, DCSA, w1, 0), // same salt, different weights
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[i] == keys[j] {
				t.Fatalf("keys %d and %d alias:\n%s", i, j, keys[i])
			}
		}
	}
}

func TestStoreSecondSolveIsBitIdenticalHit(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	first, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != 0 {
		t.Fatalf("after first solve: %v", c)
	}
	second, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cache hit not bit-identical:\n%v\nvs\n%v", first, second)
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != 1 {
		t.Fatalf("after second solve: %v", c)
	}
	// The cached solution matches what an uncached solver produces.
	bare := quickSolver(8)
	want, err := bare.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("stored solve diverged from uncached solve:\n%v\nvs\n%v", first, want)
	}
}

func TestStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	cold, _, err := s.Optimize(context.Background(), DCSA)
	if err != nil {
		t.Fatal(err)
	}
	solves := st.Counters().Solves
	if solves == 0 {
		t.Fatal("no solves recorded")
	}

	// A fresh store over the same directory answers everything from disk.
	warm, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := quickSolver(8)
	s2.Store = warm
	hot, _, err := s2.Optimize(context.Background(), DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := warm.Counters(); c.Solves != 0 || c.DiskHits != solves {
		t.Fatalf("warm run should be disk-only: %v (cold solves %d)", c, solves)
	}
	if !reflect.DeepEqual(cold, hot) {
		t.Fatalf("disk round trip not bit-identical:\n%v\nvs\n%v", cold, hot)
	}
}

// Corrupt on-disk entries must count as misses (recompute), never as errors.
func TestStoreCorruptDiskEntriesAreMisses(t *testing.T) {
	dir := t.TempDir()
	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	want, err := s.SolveRow(context.Background(), 4, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, err = %v", files, err)
	}

	corruptions := map[string]string{
		"garbage":   "{not json",
		"wrong key": `{"key":"somebody else's question","placement":{"algo":"D&C_SA","c":4,"n":8,"evals":1}}`,
		"bad row":   `{"key":"%KEY%","placement":{"algo":"D&C_SA","c":4,"n":8,"express":[{"From":0,"To":99}],"evals":1}}`,
		"empty":     "",
	}
	key := s.rowKey(4, DCSA)
	for name, content := range corruptions {
		body := content
		if body != "" {
			body = replaceAll(body, "%KEY%", key)
		}
		if err := os.WriteFile(files[0], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewPlacementStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s3 := quickSolver(8)
		s3.Store = fresh
		got, err := s3.SolveRow(context.Background(), 4, DCSA)
		if err != nil {
			t.Fatalf("%s: corrupt entry surfaced as error: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recompute after corruption diverged", name)
		}
		if c := fresh.Counters(); c.Solves != 1 || c.DiskHits != 0 {
			t.Fatalf("%s: corrupt entry should be a miss: %v", name, c)
		}
	}
}

// Concurrent solves of the same key must collapse to one real solve.
func TestStoreSingleFlight(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	results := make([]RowSolution, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := quickSolver(8)
			s.Store = st
			results[i], errs[i] = s.SolveRow(context.Background(), 4, DCSA)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("goroutine %d saw a different solution", i)
		}
	}
	if c := st.Counters(); c.Solves != 1 || c.Hits != goroutines-1 {
		t.Fatalf("single-flight violated: %v", c)
	}
}

// A cancelled solve must not poison the cache: the error propagates, nothing
// is stored, and a later solve succeeds.
func TestStoreFailedComputeNotCached(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveRow(ctx, 4, DCSA); !errors.Is(err, runctl.ErrCancelled) {
		t.Fatalf("cancelled solve returned %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("failed solve was cached (%d entries)", st.Len())
	}
	if _, err := s.SolveRow(context.Background(), 4, DCSA); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("retry not cached (%d entries)", st.Len())
	}
}

// SolveWeighted routes per-line solves through the store: a repeated call is
// answered without new solves and reproduces the solution exactly.
func TestStoreWeightedLineReuse(t *testing.T) {
	st, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	s := quickSolver(8)
	s.Store = st
	gamma := make([][]float64, 64)
	for i := range gamma {
		gamma[i] = make([]float64, 64)
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			if i != j && rng.Bool(0.2) {
				gamma[i][j] = float64(1 + rng.Intn(4))
			}
		}
	}
	w, err := WeightsFromMatrix(8, gamma)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	solves := st.Counters().Solves
	if solves != 16 { // 2n line problems on an 8x8 network
		t.Fatalf("line solves = %d, want 16", solves)
	}
	second, err := s.SolveWeighted(context.Background(), 4, w, DCSA)
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Counters(); c.Solves != solves {
		t.Fatalf("repeat run issued new solves: %v", c)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("weighted reuse not bit-identical")
	}
}

func replaceAll(s, old, new string) string {
	for {
		i := indexOf(s, old)
		if i < 0 {
			return s
		}
		s = s[:i] + new + s[i+len(old):]
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestStoreSweepsStaleTempFiles pins the open-time sweep: temp files older
// than the age guard (the debris of saveDisk writes interrupted by a kill)
// are removed and counted, while fresh temp files and real entries survive.
func TestStoreSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()

	stale := filepath.Join(dir, "deadbeef.tmp123456")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempSweepAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "cafebabe.tmp999")
	if err := os.WriteFile(fresh, []byte("in-progress"), 0o644); err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(dir, "0123abcd.json")
	if err := os.WriteFile(entry, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Counters().Swept; got != 1 {
		t.Fatalf("Swept = %d, want 1", got)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived the sweep: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file removed: %v", err)
	}
	if _, err := os.Stat(entry); err != nil {
		t.Fatalf("real cache entry removed: %v", err)
	}

	// The counter string mentions sweeps only when something was swept, so
	// the long-standing "solves=0 hits=..." grep contracts keep matching.
	if s := st.Counters().String(); !strings.Contains(s, "swept=1") {
		t.Fatalf("counters string %q missing swept count", s)
	}
	clean, err := NewPlacementStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s := clean.Counters().String(); strings.Contains(s, "swept") {
		t.Fatalf("clean store advertises sweeps: %q", s)
	}

	// A memory-only store has nothing to sweep.
	mem, err := NewPlacementStore("")
	if err != nil {
		t.Fatal(err)
	}
	if mem.Counters().Swept != 0 {
		t.Fatal("memory-only store reported sweeps")
	}
}

// TestStoreCrossProcessSharedDir models N worker processes sharing one
// -cache-dir (the sweep fabric's deployment shape) with two independent
// store instances over one directory: concurrent GetOrCompute of the same
// key must both succeed with bit-identical results (single-flight is
// per-process, so each store may solve once — but the atomic temp+rename
// write keeps the disk entry valid under the collision), and a third store
// opening the directory afterwards must answer purely from disk.
func TestStoreCrossProcessSharedDir(t *testing.T) {
	dir := t.TempDir()
	solve := func(st *PlacementStore) (RowSolution, error) {
		s := quickSolver(6)
		s.Store = st
		return s.SolveRow(context.Background(), 3, DCSA)
	}

	stA, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		sols [2]RowSolution
		errs [2]error
	)
	for i, st := range []*PlacementStore{stA, stB} {
		wg.Add(1)
		go func(i int, st *PlacementStore) {
			defer wg.Done()
			sols[i], errs[i] = solve(st)
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(sols[0], sols[1]) {
		t.Fatalf("stores disagree:\n%+v\n%+v", sols[0], sols[1])
	}
	for i, st := range []*PlacementStore{stA, stB} {
		if c := st.Counters(); c.Solves > 1 {
			t.Fatalf("store %d solved %d times", i, c.Solves)
		}
	}

	stC, err := NewPlacementStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve(stC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol, sols[0]) {
		t.Fatalf("disk round-trip disagrees:\n%+v\n%+v", sol, sols[0])
	}
	if c := stC.Counters(); c.Solves != 0 || c.DiskHits != 1 {
		t.Fatalf("third store did not answer from disk: %v", c)
	}
}

// TestStoreDiskProbeDoesNotBlockMemoryHits pins the lock scope of the
// store's disk path: while one key's compute (registered in-flight, mutex
// released) is stalled, memory hits on other keys must complete immediately.
func TestStoreDiskProbeDoesNotBlockMemoryHits(t *testing.T) {
	st, err := NewPlacementStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seed := StoredPlacement{Algo: DCSA, C: 1, N: 4, Eval: model.Eval{}, Evals: 1}
	if _, _, err := st.GetOrCompute(context.Background(), "hot", func() (StoredPlacement, error) { return seed, nil }); err != nil {
		t.Fatal(err)
	}

	enterSlow := make(chan struct{})
	releaseSlow := make(chan struct{})
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		st.GetOrCompute(context.Background(), "cold", func() (StoredPlacement, error) {
			close(enterSlow)
			<-releaseSlow
			return seed, nil
		})
	}()
	<-enterSlow

	// The cold key's compute holds no lock: hot hits must not queue behind it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, cached, err := st.GetOrCompute(context.Background(), "hot", nil); err != nil || !cached {
			t.Errorf("hot hit failed: cached=%v err=%v", cached, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("memory hit blocked behind an in-flight compute")
	}
	close(releaseSlow)
	<-slowDone
}
