package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"explink/internal/core"
	"explink/internal/exp"
	"explink/internal/obs"
)

// suitePass is one run of the whole quick suite on a fresh placement store.
type suitePass struct {
	digest string // SHA-256 over every rendered report, in registry order
	wall   time.Duration
	outs   []exp.Outcome
	store  core.StoreCounters
	errs   int
}

// runPass runs the suite once. With a tracer it records the pass, the RunAll
// call and one span per experiment, the last from RunAll's progress events.
func runPass(sel []exp.Experiment, opts exp.Options, parallel int, tr *tracer, op int) (suitePass, error) {
	store, err := core.NewPlacementStore("")
	if err != nil {
		return suitePass{}, err
	}
	opts.Store = store
	var events bytes.Buffer // EventWriter serialises its writes
	var ev *obs.EventWriter
	if tr != nil {
		ev = obs.NewEventWriter(&events)
	}
	root := tr.reserve("suite.pass", op, 0)
	start := time.Now()
	outs := exp.RunAll(context.Background(), sel, opts, parallel, ev)
	end := time.Now()
	p := suitePass{wall: end.Sub(start), outs: outs, store: store.Counters()}
	tr.finish(root, start, end)
	call := tr.add("exp.RunAll", op, root, start, end)
	if tr != nil {
		if err := experimentSpans(tr, &events, op, call); err != nil {
			return p, err
		}
	}
	h := sha256.New()
	for _, oc := range outs {
		if oc.Err != nil {
			p.errs++
			continue
		}
		fmt.Fprintf(h, "== %s\n", oc.Exp.Name)
		io.WriteString(h, oc.Rep.Render())
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// experimentSpans turns RunAll's experiment.finish events into spans under
// the RunAll call.
func experimentSpans(tr *tracer, events io.Reader, op, parent int) error {
	sc := bufio.NewScanner(events)
	for sc.Scan() {
		var e struct {
			Event   string  `json:"event"`
			Name    string  `json:"name"`
			Seconds float64 `json:"seconds"`
			TS      string  `json:"ts"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("progress event: %w", err)
		}
		if e.Event != "experiment.finish" && e.Event != "experiment.error" {
			continue
		}
		end, err := time.Parse(time.RFC3339Nano, e.TS)
		if err != nil {
			return fmt.Errorf("progress event time: %w", err)
		}
		start := end.Add(-time.Duration(e.Seconds * float64(time.Second)))
		tr.add("exp."+e.Name, op, parent, start, end)
	}
	return sc.Err()
}

// runSuiteQuick times back-to-back passes of the quick suite from one
// closed-loop caller, each pass on a fresh store with nproc workers.
func runSuiteQuick(cfg *config) (*outcome, error) {
	parallel := runtime.NumCPU()
	sel := exp.All()
	opts := exp.QuickOptions()
	opts.Seed = cfg.seed
	oc := &outcome{}

	// Set-up: a reference pass, whose digest every timed pass must repeat.
	// The first one runs instrumented and gives the run's fingerprints.
	var ref string
	for i := 0; i < suiteSetupReps; i++ {
		t0 := time.Now()
		var p suitePass
		var err error
		if i == 0 {
			oc.fingerprint, p, err = suiteFingerprint(sel, opts, parallel)
		} else {
			p, err = runPass(sel, opts, parallel, nil, 0)
		}
		if err != nil {
			return nil, err
		}
		oc.setup = append(oc.setup, time.Since(t0).Seconds())
		if p.errs > 0 {
			return nil, fmt.Errorf("reference pass: %d experiments failed", p.errs)
		}
		if i == 0 {
			ref = p.digest
		} else if p.digest != ref {
			oc.incorrect = true
		}
	}
	fmt.Printf("fingerprint digest %s\n", ref)

	reg := obs.NewRegistry()
	var mem memUse
	var store core.StoreCounters
	expSecs := map[string]float64{}
	var idle []float64
	traced := 0
	cpu0 := readCPUTimes()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for op := 1; time.Now().Before(deadline); op++ {
		tracedOp := cfg.trace && op%2 == 0
		var tr *tracer
		if tracedOp {
			tr = cfg.tr
			enableTelemetry(reg)
			mem.start()
		}
		p, err := runPass(sel, opts, parallel, tr, op)
		if tracedOp {
			mem.stop()
			disableTelemetry()
		}
		oc.attempted++
		if err != nil || p.errs > 0 || p.digest != ref {
			oc.failed++
			oc.incorrect = true
			continue
		}
		oc.completed++
		if !tracedOp {
			oc.lat = append(oc.lat, ms(p.wall))
			continue
		}
		oc.latTraced = append(oc.latTraced, ms(p.wall))
		traced++
		store = addCounters(store, p.store)
		busy := 0.0
		for _, o := range p.outs {
			expSecs[o.Exp.Name] += o.Elapsed.Seconds()
			busy += o.Elapsed.Seconds()
		}
		idle = append(idle, 1-busy/(float64(parallel)*p.wall.Seconds()))
	}
	oc.wall = time.Since(start).Seconds()
	oc.steal = stealShare(cpu0, readCPUTimes())

	oc.rssMB = peakRSSMB("self")

	if cfg.trace {
		n := float64(traced)
		s := series(reg.Snapshot())
		rest := 0.0
		for name, v := range expSecs {
			switch name {
			case "fig8", "microarch", "abbypass", "loadlat":
			default:
				rest += v
			}
		}
		oc.layer = append(oc.layer,
			kv{"exp.fig8_s", ratio(expSecs["fig8"], n), ""},
			kv{"exp.microarch_s", ratio(expSecs["microarch"], n), ""},
			kv{"exp.abbypass_s", ratio(expSecs["abbypass"], n), ""},
			kv{"exp.loadlat_s", ratio(expSecs["loadlat"], n), ""},
			kv{"exp.rest_s", ratio(rest, n), ""},
			kv{"exp.slot_idle_share", mean(idle), ""},
		)
		oc.layer = append(oc.layer, simLayer(s, n)...)
		oc.layer = append(oc.layer, coreLayer(s, store, n)...)
		oc.layer = append(oc.layer, annealLayer(s, n)...)
		oc.layer = append(oc.layer, mem.layer()...)
		probes, err := simProbes(cfg.seed)
		if err != nil {
			return nil, err
		}
		init, err := dncProbe()
		if err != nil {
			return nil, err
		}
		oc.layer = append(oc.layer, append(probes, init)...)
	}
	return oc, nil
}

// suiteFingerprint runs one pass with telemetry on and returns its
// exact-repeat counts with the pass.
func suiteFingerprint(sel []exp.Experiment, opts exp.Options, parallel int) ([]kv, suitePass, error) {
	reg := obs.NewRegistry()
	var mem memUse
	enableTelemetry(reg)
	mem.start()
	p, err := runPass(sel, opts, parallel, nil, 0)
	mem.stop()
	disableTelemetry()
	if err != nil {
		return nil, p, err
	}
	s := series(reg.Snapshot())
	fp := append(pick(simLayer(s, 1), "sim.cycles", "sim.flits_delivered"),
		pick(annealLayer(s, 1), "anneal.moves")...)
	fp = append(fp, pick(coreLayer(s, p.store, 1), "core.solves", "core.store_hits")...)
	fp = append(fp, pick(mem.layer(), "go.allocs_per_op")...)
	return fp, p, nil
}
