package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"explink/internal/anneal"
	"explink/internal/dnc"
	"explink/internal/model"
	"explink/internal/power"
	"explink/internal/runctl"
	"explink/internal/stats"
	"explink/internal/topo"
)

// Multi-objective placement search: SolvePareto runs the archive-based
// vector annealer (anneal.MinimizePareto) over {latency, power, wiring}
// instead of collapsing everything into one scalar, and returns the
// non-dominated frontier across link limits. The scalar SolveRow/Optimize
// path is untouched — it stays the k=1 special case.

// ParetoSA labels frontier solves in results and cache keys. It is a
// distinct Algorithm so frontier artifacts can never alias scalar ones.
const ParetoSA Algorithm = "ParetoSA"

// Objective names one frontier dimension. Values are wire-stable: they
// appear in API requests, cache-key preimages and report tables.
type Objective string

const (
	// ObjLatency is the paper's L_avg in cycles: 2·row head mean plus the
	// mix-average serialization at the C-dependent link width.
	ObjLatency Objective = "latency"
	// ObjPower is the sim-free placement power in watts: component static
	// power plus wiring leakage (power.PlacementCost.TotalPower).
	ObjPower Objective = "power"
	// ObjWiring is the wire demand in bit-units (power.PlacementCost.
	// WireBitUnits) — the floorplanner's cost, independent of leakage
	// coefficients.
	ObjWiring Objective = "wiring"
)

// AllObjectives is the canonical dimension order; an empty objective list
// means all of these.
var AllObjectives = []Objective{ObjLatency, ObjPower, ObjWiring}

// ParseObjectives canonicalizes an objective-name list: empty input means
// AllObjectives; unknown names and duplicates are errors. The returned slice
// is always a fresh copy in caller order.
func ParseObjectives(names []string) ([]Objective, error) {
	if len(names) == 0 {
		return append([]Objective(nil), AllObjectives...), nil
	}
	out := make([]Objective, 0, len(names))
	seen := make(map[Objective]bool, len(names))
	for _, name := range names {
		o := Objective(strings.TrimSpace(name))
		switch o {
		case ObjLatency, ObjPower, ObjWiring:
		default:
			return nil, fmt.Errorf("core: unknown objective %q (have latency, power, wiring)", name)
		}
		if seen[o] {
			return nil, fmt.Errorf("core: duplicate objective %q", o)
		}
		seen[o] = true
		out = append(out, o)
	}
	return out, nil
}

// ParetoSpec configures a frontier solve.
type ParetoSpec struct {
	// Objectives are the frontier dimensions in order; empty means
	// AllObjectives.
	Objectives []Objective
	// ArchiveCap bounds the per-C non-dominated archive; <= 0 means
	// anneal.DefaultArchiveCap.
	ArchiveCap int
	// Power supplies the sim-free cost coefficients; the zero value means
	// power.DefaultModel().
	Power power.Model
}

// resolved returns the spec with every default applied; all cache keys and
// solves derive from the resolved form.
func (sp ParetoSpec) resolved() (ParetoSpec, error) {
	out := sp
	var err error
	if out.Objectives, err = ParseObjectives(objectiveNames(sp.Objectives)); err != nil {
		return ParetoSpec{}, err
	}
	if out.ArchiveCap <= 0 {
		out.ArchiveCap = anneal.DefaultArchiveCap
	}
	if out.Power == (power.Model{}) {
		out.Power = power.DefaultModel()
	}
	return out, nil
}

func objectiveNames(objs []Objective) []string {
	if len(objs) == 0 {
		return nil
	}
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = string(o)
	}
	return out
}

// FrontierEntry is one non-dominated placement.
type FrontierEntry struct {
	C    int
	Row  topo.Row
	Eval model.Eval          // latency breakdown at this C's width
	Cost power.PlacementCost // sim-free power/wiring breakdown
	Objs []float64           // objective vector, Frontier.Objectives order
}

// Frontier is the outcome of a Pareto solve: mutually non-dominated entries
// in deterministic order — lexicographic by objective vector, then by C,
// then by placement — deduped, with every Objs recomputed canonically from
// the entry's deduped row.
type Frontier struct {
	Objectives []Objective
	Entries    []FrontierEntry
	Evals      int64 // total placement evaluations across all C
}

// paretoVector adapts the objective dimensions to the annealer's
// VectorMoveObjective protocol. The latency dimension rides on the PR 7
// incremental router (model.IncObjective); power and wiring decode the
// mirror matrix and price it with the closed-form evaluator — sim-free, so
// every dimension is cheap inside the move loop. Not safe for concurrent
// use; one per solve.
type paretoVector struct {
	dims    []Objective
	inc     *model.IncObjective // nil when latency is not a dimension
	m       *topo.ConnMatrix    // private mirror for the power dimensions
	pending int
	width   int
	ser     float64 // serialization latency, constant at fixed C
	pm      power.Model
}

func newParetoVector(dims []Objective, p model.Params, pm power.Model, width int, ser float64) *paretoVector {
	v := &paretoVector{dims: dims, width: width, ser: ser, pm: pm}
	for _, d := range dims {
		if d == ObjLatency {
			v.inc = model.NewIncObjective(p)
		}
	}
	return v
}

func (v *paretoVector) K() int { return len(v.dims) }

func (v *paretoVector) Init(m *topo.ConnMatrix, dst []float64) {
	v.m = m.Clone()
	var rowMean float64
	if v.inc != nil {
		rowMean = v.inc.Init(m)
	}
	v.fill(dst, rowMean)
}

func (v *paretoVector) Flip(bit int) {
	if v.inc != nil {
		v.inc.Flip(bit)
	}
	v.m.FlipAt(bit)
	v.pending = bit
}

func (v *paretoVector) Eval(dst []float64) {
	var rowMean float64
	if v.inc != nil {
		rowMean = v.inc.Eval()
	}
	v.fill(dst, rowMean)
}

func (v *paretoVector) Commit() {
	if v.inc != nil {
		v.inc.Commit()
	}
}

func (v *paretoVector) Revert() {
	if v.inc != nil {
		v.inc.Revert()
	}
	v.m.FlipAt(v.pending)
}

// fill writes the objective vector of the tracked state. The placement cost
// is computed at most once per call even when both power and wiring are
// dimensions.
func (v *paretoVector) fill(dst []float64, rowMean float64) {
	var cost power.PlacementCost
	haveCost := false
	for i, d := range v.dims {
		switch d {
		case ObjLatency:
			dst[i] = 2*rowMean + v.ser
		default:
			if !haveCost {
				cost = v.pm.PlacementCost(v.m.Row(), v.width)
				haveCost = true
			}
			if d == ObjPower {
				dst[i] = cost.TotalPower()
			} else {
				dst[i] = cost.WireBitUnits
			}
		}
	}
}

// objsFor recomputes the canonical objective vector of a finished entry from
// its deduped row — the same values the move loop saw (duplicate spans never
// change any dimension), but derived from the durable representation.
func objsFor(dims []Objective, ev model.Eval, cost power.PlacementCost) []float64 {
	out := make([]float64, len(dims))
	for i, d := range dims {
		switch d {
		case ObjLatency:
			out[i] = ev.Total
		case ObjPower:
			out[i] = cost.TotalPower()
		default:
			out[i] = cost.WireBitUnits
		}
	}
	return out
}

// paretoScales derives the per-dimension acceptance scales from the initial
// state: each dimension is normalized by the ratio of its initial value to
// dimension 0's, so one temperature schedule (tuned in cycles of ΔL) spans
// units from watts to bit-units. Deterministic — a pure function of the
// initial vector — and irrelevant for k=1 (all scales 1 when the ratio
// guard trips or dims match).
func paretoScales(init []float64) []float64 {
	scales := make([]float64, len(init))
	for d := range scales {
		scales[d] = 1
		if init[0] > 0 && init[d] > 0 {
			scales[d] = init[d] / init[0]
		}
	}
	return scales
}

// SolvePareto runs the multi-objective placement search. c > 0 solves one
// link limit; c <= 0 sweeps every feasible limit (the Optimize analogue) on
// the solver's worker pool and merges the per-C archives into one frontier.
// With a Store attached every frontier entry is cached individually under a
// frontier-salted key (see paretoKey), so a warm re-run solves nothing.
func (s *Solver) SolvePareto(ctx context.Context, c int, spec ParetoSpec) (Frontier, error) {
	rspec, err := spec.resolved()
	if err != nil {
		return Frontier{}, err
	}
	if err := s.Cfg.Validate(); err != nil {
		return Frontier{}, err
	}
	if c > 0 {
		entries, evals, err := s.solveParetoC(ctx, c, rspec)
		if err != nil {
			return Frontier{}, err
		}
		return finishFrontier(rspec.Objectives, entries, evals), nil
	}

	limits := s.Cfg.BW.FeasibleLimits(topo.LinkLimits(s.Cfg.N))
	if len(limits) == 0 {
		return Frontier{}, fmt.Errorf("core: no feasible link limits for n=%d", s.Cfg.N)
	}
	perC := make([][]FrontierEntry, len(limits))
	perEvals := make([]int64, len(limits))
	err = forEachIndex(ctx, len(limits), s.Workers, func(i int) error {
		entries, evals, err := s.solveParetoC(ctx, limits[i], rspec)
		if err != nil {
			return fmt.Errorf("core: C=%d: %w", limits[i], err)
		}
		perC[i], perEvals[i] = entries, evals
		return nil
	})
	if err != nil {
		return Frontier{}, err
	}
	var merged []FrontierEntry
	var evals int64
	for i := range perC {
		merged = append(merged, perC[i]...)
		evals += perEvals[i]
	}
	return finishFrontier(rspec.Objectives, merged, evals), nil
}

// finishFrontier filters the merged entries to the non-dominated set, sorts
// them deterministically and drops exact duplicates.
func finishFrontier(dims []Objective, entries []FrontierEntry, evals int64) Frontier {
	points := make([][]float64, len(entries))
	for i := range entries {
		points[i] = entries[i].Objs
	}
	kept := make([]FrontierEntry, 0, len(entries))
	for _, i := range stats.ParetoFront(points) {
		kept = append(kept, entries[i])
	}
	sort.Slice(kept, func(a, b int) bool {
		if cmp := stats.CompareLex(kept[a].Objs, kept[b].Objs); cmp != 0 {
			return cmp < 0
		}
		if kept[a].C != kept[b].C {
			return kept[a].C < kept[b].C
		}
		return kept[a].Row.String() < kept[b].Row.String()
	})
	out := kept[:0]
	for i, e := range kept {
		if i > 0 {
			prev := out[len(out)-1]
			if prev.C == e.C && stats.CompareLex(prev.Objs, e.Objs) == 0 && prev.Row.Equal(e.Row) {
				continue
			}
		}
		out = append(out, e)
	}
	return Frontier{Objectives: dims, Entries: out, Evals: evals}
}

// solveParetoC answers one link limit's archive, through the store when one
// is attached. The cache layout is one meta entry (archive size + evals)
// plus one entry per archived placement, all under the frontier-salted base
// key; the real anneal runs at most once per process even when several
// cached pieces are missing or corrupt (sync.Once), and a warm store
// answers everything without solving.
func (s *Solver) solveParetoC(ctx context.Context, c int, spec ParetoSpec) ([]FrontierEntry, int64, error) {
	if s.Store == nil {
		return s.solveParetoUncached(ctx, c, spec)
	}
	base := s.paretoKey(c, spec)
	var once sync.Once
	var computed []FrontierEntry
	var computedEvals int64
	var computeErr error
	run := func() {
		computed, computedEvals, computeErr = s.solveParetoUncached(ctx, c, spec)
	}

	meta, _, err := s.Store.GetOrCompute(ctx, base+"frontier=meta\n", func() (StoredPlacement, error) {
		once.Do(run)
		if computeErr != nil {
			return StoredPlacement{}, computeErr
		}
		return StoredPlacement{
			Algo:  ParetoSA,
			C:     c,
			N:     s.Cfg.N,
			Evals: computedEvals,
			Count: len(computed),
		}, nil
	})
	if err != nil {
		return nil, 0, err
	}

	entries := make([]FrontierEntry, meta.Count)
	for i := 0; i < meta.Count; i++ {
		i := i
		sp, _, err := s.Store.GetOrCompute(ctx, base+fmt.Sprintf("frontier=entry:%d\n", i), func() (StoredPlacement, error) {
			once.Do(run)
			if computeErr != nil {
				return StoredPlacement{}, computeErr
			}
			if i >= len(computed) {
				return StoredPlacement{}, fmt.Errorf("core: frontier entry %d beyond recomputed archive of %d (stale meta)", i, len(computed))
			}
			e := computed[i]
			sp := StoredPlacement{
				Algo:  ParetoSA,
				C:     c,
				N:     s.Cfg.N,
				Eval:  e.Eval,
				Evals: computedEvals,
				Objs:  e.Objs,
			}
			if len(e.Row.Express) > 0 {
				sp.Express = e.Row.Express
			}
			return sp, nil
		})
		if err != nil {
			return nil, 0, err
		}
		entries[i] = s.frontierEntryFromStored(sp, spec)
	}
	return entries, meta.Evals, nil
}

// frontierEntryFromStored rebuilds an entry from its cached form; the
// placement cost is cheap and derived, so it is recomputed rather than
// persisted.
func (s *Solver) frontierEntryFromStored(sp StoredPlacement, spec ParetoSpec) FrontierEntry {
	row := sp.Row()
	return FrontierEntry{
		C:    sp.C,
		Row:  row,
		Eval: sp.Eval,
		Cost: spec.Power.PlacementCost(row, sp.Eval.Width),
		Objs: sp.Objs,
	}
}

// solveParetoUncached runs one link limit's archive anneal: D&C initial
// solution (the DCSA anchor), vector annealing, then per-entry dedupe,
// feasibility scoring and canonical objective recomputation. Entries return
// sorted lexicographically by objective vector.
func (s *Solver) solveParetoUncached(ctx context.Context, c int, spec ParetoSpec) ([]FrontierEntry, int64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	width, err := s.Cfg.BW.Width(c)
	if err != nil {
		return nil, 0, err
	}
	n := s.Cfg.N
	ser := model.Serialization(s.Cfg.Mix, width)

	init := dnc.Initial(n, c, s.Cfg.Params)
	evals := init.Evals
	m, err := topo.MatrixFromRow(init.Row, c)
	if err != nil {
		return nil, 0, fmt.Errorf("core: encoding initial solution: %w", err)
	}

	vo := newParetoVector(spec.Objectives, s.Cfg.Params, spec.Power, width, ser)
	initObjs := make([]float64, vo.K())
	vo.Init(m, initObjs)
	opts := anneal.ParetoOpts{ArchiveCap: spec.ArchiveCap, Scales: paretoScales(initObjs)}

	res := anneal.MinimizePareto(ctx, m, newParetoVector(spec.Objectives, s.Cfg.Params, spec.Power, width, ser),
		opts, s.Sched, s.rng(c, ParetoSA))
	evals += res.Evals
	if ctx.Err() != nil {
		return nil, 0, fmt.Errorf("core: C=%d pareto solve interrupted after %d evals: %w",
			c, evals, runctl.Cancelled(ctx))
	}

	entries := make([]FrontierEntry, 0, len(res.Entries))
	for _, e := range res.Entries {
		row := e.Row.Dedupe()
		dup := false
		for _, prev := range entries {
			if prev.Row.Equal(row) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		ev, err := s.Cfg.EvalRow(row, c)
		if err != nil {
			return nil, 0, fmt.Errorf("core: archived placement infeasible at C=%d: %w", c, err)
		}
		cost := spec.Power.PlacementCost(row, width)
		entries = append(entries, FrontierEntry{
			C:    c,
			Row:  row,
			Eval: ev,
			Cost: cost,
			Objs: objsFor(spec.Objectives, ev, cost),
		})
	}
	sort.Slice(entries, func(a, b int) bool {
		if cmp := stats.CompareLex(entries[a].Objs, entries[b].Objs); cmp != 0 {
			return cmp < 0
		}
		return entries[a].Row.String() < entries[b].Row.String()
	})
	return entries, evals, nil
}

// paretoKey is the canonical cache-key base for one link limit's frontier:
// the solver-wide configKey plus everything else a frontier solve depends on
// — the algorithm label, C, the objective list and archive cap, and the
// power-model coefficients the power/wiring dimensions price with. Entry and
// meta keys append their own "frontier=..." suffix, so frontier artifacts
// can never collide with scalar row/line entries (different kind=) or with
// each other.
func (s *Solver) paretoKey(c int, spec ParetoSpec) string {
	var b strings.Builder
	s.configKey(&b)
	fmt.Fprintf(&b, "kind=pareto\nalgo=%s\nc=%d\narchive=%d\n", ParetoSA, c, spec.ArchiveCap)
	b.WriteString("objectives=")
	for i, o := range spec.Objectives {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(o))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "power=%s,%s,%s,%s,%d,%s\n",
		fnum(spec.Power.Static.BufPerBit), fnum(spec.Power.Static.XbarPerBK2),
		fnum(spec.Power.Static.OtherPerPort), fnum(spec.Power.Static.OtherBase),
		spec.Power.BufBitsPerRouter, fnum(spec.Power.WirePerBitUnit))
	return b.String()
}
