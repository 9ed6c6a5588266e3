package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"explink/internal/model"
	"explink/internal/runctl"
	"explink/internal/topo"
)

// storeVersion salts every cache key with the placement-code generation: any
// change to the solvers that can alter a solution for the same inputs must
// bump it, so stale on-disk artifacts from an older binary become misses
// instead of silently wrong answers.
const storeVersion = "explink/placement/v1"

// StoredPlacement is the cacheable outcome of one placement solve — the
// uniform row solve behind SolveRow/Optimize, or one weighted line solve
// behind SolveWeighted. Everything in it round-trips through encoding/json
// bit-identically (spans are ints; float64 marshals shortest-round-trip), so
// a cache hit reproduces the original solution exactly.
type StoredPlacement struct {
	Algo    Algorithm   `json:"algo"`
	C       int         `json:"c"`
	N       int         `json:"n"`
	Express []topo.Span `json:"express,omitempty"`
	Eval    model.Eval  `json:"eval"`
	Evals   int64       `json:"evals"`
	// Objs is the canonical objective vector of a frontier entry (ParetoSA
	// solves only); Count is the archive size recorded by a frontier meta
	// entry. Both are omitempty so scalar entries keep their pre-frontier
	// bytes and addresses.
	Objs  []float64 `json:"objs,omitempty"`
	Count int       `json:"count,omitempty"`
}

// Row reconstructs the placement row.
func (sp StoredPlacement) Row() topo.Row {
	return topo.Row{N: sp.N, Express: sp.Express}
}

// RowSolution reconstructs the full uniform-row solution.
func (sp StoredPlacement) RowSolution() RowSolution {
	return RowSolution{Algo: sp.Algo, C: sp.C, Row: sp.Row(), Eval: sp.Eval, Evals: sp.Evals}
}

func storedFromSolution(sol RowSolution) StoredPlacement {
	sp := StoredPlacement{Algo: sol.Algo, C: sol.C, N: sol.Row.N, Eval: sol.Eval, Evals: sol.Evals}
	if len(sol.Row.Express) > 0 {
		sp.Express = sol.Row.Express
	}
	return sp
}

// StoreCounters is a snapshot of a store's effectiveness counters.
type StoreCounters struct {
	// Solves counts cache misses that ran a real solve (each distinct key is
	// solved at most once per store thanks to single-flight deduplication).
	Solves int64 `json:"solves"`
	// Hits counts solves answered from memory, including callers that waited
	// on an in-flight computation of the same key.
	Hits int64 `json:"hits"`
	// DiskHits counts solves answered from the on-disk cache (a warm
	// -cache-dir run reports Solves == 0 and DiskHits > 0).
	DiskHits int64 `json:"diskHits"`
	// Swept counts stale temp files removed when the store was opened —
	// leftovers of atomic writes interrupted by a kill.
	Swept int64 `json:"swept,omitempty"`
}

func (c StoreCounters) String() string {
	s := fmt.Sprintf("solves=%d hits=%d disk=%d", c.Solves, c.Hits, c.DiskHits)
	if c.Swept > 0 {
		s += fmt.Sprintf(" swept=%d", c.Swept)
	}
	return s
}

// PlacementStore is a content-addressed cache of placement solves shared by
// every experiment: the canonical key covers everything that determines a
// solution (network size, link limit, bandwidth budget, packet mix, timing
// parameters, objective weights, algorithm, seed and annealing budget), so
// two solves with the same key are bit-identical and the second one can be
// answered from the store.
//
// The store is an in-memory map with optional on-disk persistence (one JSON
// file per key under Dir). Lookups of a key being computed block until the
// computation finishes (single-flight), which is what makes a parallel
// `expbench -exp all` issue each distinct solve exactly once. Corrupt or
// mismatched disk entries are treated as misses, never as errors. All methods
// are safe for concurrent use.
type PlacementStore struct {
	dir string

	mu       sync.Mutex
	mem      map[string]StoredPlacement
	inflight map[string]chan struct{}
	counters StoreCounters
}

// NewPlacementStore returns a store; dir == "" keeps it memory-only, any
// other value also persists entries under dir (created if missing). Opening
// a persistent store sweeps temp files left behind by interrupted writes
// (see sweepTemp); the count lands in Counters().Swept.
func NewPlacementStore(dir string) (*PlacementStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("core: placement store dir: %w", err)
		}
	}
	st := &PlacementStore{
		dir:      dir,
		mem:      make(map[string]StoredPlacement),
		inflight: make(map[string]chan struct{}),
	}
	st.counters.Swept = sweepTemp(dir, tempSweepAge)
	return st, nil
}

// tempSweepAge guards the open-time sweep: only temp files at least this old
// are removed, so a concurrent store writing into the same directory never
// loses an in-progress file to another process's open.
const tempSweepAge = time.Hour

// sweepTemp removes stale "<addr>.tmp*" files under dir — the debris of
// saveDisk's atomic write pattern when the process is killed between
// CreateTemp and Rename. Returns how many files were removed; every failure
// mode (unreadable dir, vanished file) is skipped silently, matching the
// cache's best-effort persistence.
func sweepTemp(dir string, minAge time.Duration) int64 {
	if dir == "" {
		return 0
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-minAge)
	var swept int64
	for _, e := range entries {
		if e.IsDir() || !strings.Contains(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			swept++
		}
	}
	return swept
}

// Dir returns the on-disk directory, or "" for a memory-only store.
func (st *PlacementStore) Dir() string { return st.dir }

// Counters returns a snapshot of the effectiveness counters.
func (st *PlacementStore) Counters() StoreCounters {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.counters
}

// Len returns the number of cached entries in memory.
func (st *PlacementStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.mem)
}

// GetOrCompute answers the canonical key from cache, or runs compute exactly
// once per key (concurrent callers of the same key wait and share the
// result). A failed compute caches nothing — the error propagates to every
// waiter and a later call retries, so a cancelled run never poisons the
// store. The bool reports whether the result came from cache.
//
// Admission: a memory hit, a disk hit and a wait on another caller's
// in-flight compute never call runctl.Admit. Only a miss does, after the
// disk probe and *before* the caller registers as the key's in-flight owner;
// a refused admission is returned as the error. Invariant: an in-flight
// owner always holds its admission. Admitting inside compute instead would
// let an owner of key K sit unadmitted in the gate queue while a slot holder
// that needs K (a dcsa simulation solving the same design) waits on that
// owner — with one slot, a deadlock.
func (st *PlacementStore) GetOrCompute(ctx context.Context, key string, compute func() (StoredPlacement, error)) (StoredPlacement, bool, error) {
	addr := keyAddress(key)
	st.mu.Lock()
	for admitted := false; ; {
		if sp, ok := st.mem[addr]; ok {
			st.counters.Hits++
			st.mu.Unlock()
			return sp, true, nil
		}
		if fl, ok := st.inflight[addr]; ok {
			// Someone is solving this key right now: wait, then re-check. If
			// the compute failed nothing was cached and we take over.
			st.mu.Unlock()
			<-fl
			st.mu.Lock()
			continue
		}
		if admitted {
			break
		}
		// Probe the disk and wait for admission outside the mutex: a slow
		// disk (or N workers hammering one shared -cache-dir over NFS) or a
		// full gate must never stall concurrent memory hits. Concurrent
		// probes of one key are harmless reads.
		st.mu.Unlock()
		if sp, ok := st.loadDisk(addr, key); ok {
			st.mu.Lock()
			st.mem[addr] = sp
			st.counters.Hits++
			st.counters.DiskHits++
			st.mu.Unlock()
			return sp, true, nil
		}
		if err := runctl.Admit(ctx); err != nil {
			return StoredPlacement{}, false, err
		}
		admitted = true
		st.mu.Lock()
	}
	fl := make(chan struct{})
	st.inflight[addr] = fl
	st.counters.Solves++
	st.mu.Unlock()

	sp, err := compute()

	if err == nil {
		st.saveDisk(addr, key, sp)
	}
	st.mu.Lock()
	delete(st.inflight, addr)
	if err == nil {
		st.mem[addr] = sp
	}
	close(fl)
	st.mu.Unlock()
	if err != nil {
		return StoredPlacement{}, false, err
	}
	return sp, false, nil
}

// keyAddress derives the content address (SHA-256 of the canonical key
// preimage) used as map key and disk file name.
func keyAddress(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// diskEntry is the persisted form: the full key preimage rides along so a
// load can verify the entry answers exactly the question being asked (guards
// against truncated writes, manual edits and — in principle — collisions).
type diskEntry struct {
	Key       string          `json:"key"`
	Placement StoredPlacement `json:"placement"`
}

func (st *PlacementStore) path(addr string) string {
	return filepath.Join(st.dir, addr+".json")
}

// loadDisk reads and validates one entry; every failure mode is a miss.
// Called without st.mu (it touches only the immutable dir), so slow disk
// reads never block concurrent memory hits.
func (st *PlacementStore) loadDisk(addr, key string) (StoredPlacement, bool) {
	if st.dir == "" {
		return StoredPlacement{}, false
	}
	buf, err := os.ReadFile(st.path(addr))
	if err != nil {
		return StoredPlacement{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(buf, &e); err != nil {
		return StoredPlacement{}, false
	}
	if e.Key != key {
		return StoredPlacement{}, false
	}
	sp := e.Placement
	if sp.N < 1 || sp.C < 1 || sp.Evals < 0 || sp.Count < 0 {
		return StoredPlacement{}, false
	}
	if err := sp.Row().Validate(sp.C); err != nil {
		return StoredPlacement{}, false
	}
	return sp, true
}

// saveDisk persists one entry atomically (write to a temp file, then
// rename); persistence failures are ignored — the cache is an accelerator,
// not a system of record. Called without st.mu: the temp-file + rename
// pattern is already safe against concurrent writers of the same address
// (including other processes sharing the directory), and keeping the write
// off the lock keeps one slow disk from serializing the whole store.
func (st *PlacementStore) saveDisk(addr, key string, sp StoredPlacement) {
	if st.dir == "" {
		return
	}
	buf, err := json.MarshalIndent(diskEntry{Key: key, Placement: sp}, "", "  ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(st.dir, addr+".tmp*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), st.path(addr)); err != nil {
		os.Remove(tmp.Name())
	}
}

// ---- canonical key derivation ----

// fnum formats a float with the shortest representation that round-trips,
// so the preimage is canonical for every representable value.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// configKey writes the solver-wide key fields shared by row and line solves:
// everything on the Solver that can change a solution. Workers is explicitly
// excluded — output is bit-identical for any worker count.
func (s *Solver) configKey(b *strings.Builder) {
	b.WriteString(storeVersion)
	b.WriteByte('\n')
	fmt.Fprintf(b, "n=%d\n", s.Cfg.N)
	fmt.Fprintf(b, "params=%s,%s,%s\n",
		fnum(s.Cfg.Params.RouterDelay), fnum(s.Cfg.Params.LinkDelay), fnum(s.Cfg.Params.Contention))
	b.WriteString("mix=")
	for i, c := range s.Cfg.Mix {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(b, "%s:%d:%s", c.Name, c.Bits, fnum(c.Frac))
	}
	b.WriteByte('\n')
	fmt.Fprintf(b, "bw=%d,%d,%d\n", s.Cfg.BW.BaseWidth, s.Cfg.BW.MaxWidth, s.Cfg.BW.MinWidth)
	fmt.Fprintf(b, "worst=%s\n", fnum(s.WorstWeight))
	fmt.Fprintf(b, "seed=%d\n", s.Seed)
	fmt.Fprintf(b, "sched=%s,%d,%d,%s,%d\n",
		fnum(s.Sched.T0), s.Sched.Moves, s.Sched.CoolEvery, fnum(s.Sched.CoolDiv), s.Sched.StopAfterNoImprove)
}

// rowKey is the canonical preimage for the uniform row solve P̃(n, C).
func (s *Solver) rowKey(c int, algo Algorithm) string {
	var b strings.Builder
	s.configKey(&b)
	fmt.Fprintf(&b, "kind=row\nalgo=%s\nc=%d\n", algo, c)
	return b.String()
}

// lineKey is the canonical preimage for one weighted line solve of
// SolveWeighted: the row key plus the line's weight matrix and its RNG salt
// (two lines with identical weights still draw from distinct streams, so the
// salt is part of what determines the output).
func (s *Solver) lineKey(c int, algo Algorithm, w [][]float64, salt int64) string {
	var b strings.Builder
	s.configKey(&b)
	fmt.Fprintf(&b, "kind=line\nalgo=%s\nc=%d\nsalt=%d\nweights=", algo, c, salt)
	for i, row := range w {
		if i > 0 {
			b.WriteByte(';')
		}
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(fnum(v))
		}
	}
	b.WriteByte('\n')
	return b.String()
}
