package main

import (
	"runtime"
	"strings"

	"explink/internal/anneal"
	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
	"explink/internal/sim"
)

// enableTelemetry wires a fresh registry through every in-process layer's
// EnableMetrics hook; disableTelemetry turns collection off again.
func enableTelemetry(reg *obs.Registry) {
	sim.EnableMetrics(reg)
	anneal.EnableMetrics(reg)
	core.EnableMetrics(reg)
	exp.EnableMetrics(reg)
}

func disableTelemetry() { enableTelemetry(nil) }

// series is a flat view of registry or /metrics values keyed name{labels}.
type series map[string]float64

// sum adds every series named name, whatever its labels.
func (s series) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// minus returns s - base, series by series.
func (s series) minus(base series) series {
	out := series{}
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// simLayer derives the simulator metrics from sim telemetry, per op.
func simLayer(s series, ops float64) []kv {
	cycles := s.sum("sim_cycles_total")
	busy := s.sum("sim_run_seconds_total")
	return []kv{
		{"sim.runs", ratio(s.sum("sim_runs_finished_total"), ops), ""},
		{"sim.cycles", ratio(cycles, ops), ""},
		{"sim.drain_cycle_share", ratio(s[`sim_cycles_total{phase="drain"}`], cycles), ""},
		{"sim.busy_s", ratio(busy, ops), ""},
		{"sim.ns_per_cycle", ratio(busy*1e9, cycles), ""},
		{"sim.flits_delivered", ratio(s.sum("sim_flits_delivered_total"), ops), ""},
	}
}

// annealLayer derives the annealer metrics from anneal telemetry, per op.
func annealLayer(s series, ops float64) []kv {
	moves := s.sum("anneal_moves_total")
	busy := s.sum("anneal_search_seconds_total")
	return []kv{
		{"anneal.moves", ratio(moves, ops), ""},
		{"anneal.busy_s", ratio(busy, ops), ""},
		{"anneal.ns_per_move", ratio(busy*1e9, moves), ""},
		{"anneal.memo_hit_ratio", ratio(s.sum("anneal_memo_hits_total"), s.sum("anneal_evals_total")), ""},
		{"anneal.accept_ratio", ratio(s.sum("anneal_accepted_total"), moves), ""},
	}
}

// coreLayer derives the solver and store metrics, per op, from core
// telemetry and the store counters summed over the ops.
func coreLayer(s series, st core.StoreCounters, ops float64) []kv {
	return []kv{
		{"core.solves", ratio(float64(st.Solves), ops), ""},
		{"core.store_hits", ratio(float64(st.Hits), ops), ""},
		{"core.store_hit_ratio", ratio(float64(st.Hits), float64(st.Hits+st.Solves)), ""},
		{"core.solve_busy_s", ratio(s.sum("core_solve_seconds_total"), ops), ""},
		{"core.evals", ratio(s.sum("core_evals_total"), ops), ""},
	}
}

func addCounters(a, b core.StoreCounters) core.StoreCounters {
	a.Solves += b.Solves
	a.Hits += b.Hits
	a.DiskHits += b.DiskHits
	return a
}

// memUse accumulates Go runtime allocation and GC counts over the ops it
// brackets.
type memUse struct {
	ops                    int
	mallocs, bytes, cycles uint64
	before                 runtime.MemStats
}

func (m *memUse) start() { runtime.ReadMemStats(&m.before) }

func (m *memUse) stop() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.ops++
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.cycles += uint64(after.NumGC - m.before.NumGC)
}

func (m *memUse) layer() []kv {
	n := float64(m.ops)
	return []kv{
		{"go.allocs_per_op", ratio(float64(m.mallocs), n), ""},
		{"go.bytes_per_op", ratio(float64(m.bytes), n), ""},
		{"go.gc_cycles", ratio(float64(m.cycles), n), ""},
	}
}

// pick returns the named entries of a metric list, in the given order.
func pick(list []kv, names ...string) []kv {
	out := make([]kv, 0, len(names))
	for _, n := range names {
		for _, l := range list {
			if l.name == n {
				out = append(out, l)
			}
		}
	}
	return out
}
