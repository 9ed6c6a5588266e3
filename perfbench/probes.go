package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"explink/internal/api"
	"explink/internal/core"
	"explink/internal/dnc"
	"explink/internal/model"
	"explink/internal/sim"
)

// probeReps is how many times a traced run repeats each layer probe; the
// probe reports the median.
const probeReps = 5

// simProbes times sim.New and Run on an 8x8 mesh under uniform random
// traffic at a low (0.05) and a high (0.25) injection rate.
func simProbes(seed uint64) ([]kv, error) {
	var builds []float64
	perCycle := map[float64][]float64{}
	for _, rate := range []float64{0.05, 0.25} {
		req := api.SimRequest{N: 8, Rate: rate, Seed: seed, Warmup: 1000, Measure: 4000, Drain: 5000}
		req.Normalize()
		cfg, err := req.Config(context.Background(), nil)
		if err != nil {
			return nil, fmt.Errorf("sim probe: %w", err)
		}
		for i := 0; i < probeReps; i++ {
			t0 := time.Now()
			s, err := sim.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("sim probe: %w", err)
			}
			builds = append(builds, ms(time.Since(t0)))
			res, err := s.Run(context.Background())
			if err != nil && res.Cycles == 0 {
				return nil, fmt.Errorf("sim probe at rate %g: %w", rate, err)
			}
			perCycle[rate] = append(perCycle[rate], float64(res.WallTime.Nanoseconds())/float64(res.Cycles))
		}
	}
	return []kv{
		{"sim.ns_per_cycle_low", quantile(perCycle[0.05], 50), ""},
		{"sim.ns_per_cycle_high", quantile(perCycle[0.25], 50), ""},
		{"sim.build_ms", quantile(builds, 50), ""},
	}, nil
}

// The D&C probe's problem size: the paper's Fig. 7 cost, 16 routers per row
// at link limit 4.
const (
	dncN = 16
	dncC = 4
)

// dncProbe times the D&C initial placement (dnc.Initial, whose leaves run
// the BnB solver) at dncN routers per row and link limit dncC.
func dncProbe() (kv, error) {
	params := model.DefaultConfig(dncN).Params
	us, err := batchMedian(func() error {
		dnc.Initial(dncN, dncC, params)
		return nil
	})
	return kv{"dnc.init_ms", us / 1e3, ""}, err
}

// storeHitProbe times a solve request of an 8x8 network at C=4 answered
// from a memory placement store that already holds it.
func storeHitProbe(seed uint64) (kv, error) {
	store, err := core.NewPlacementStore("")
	if err != nil {
		return kv{}, err
	}
	req := api.SolveRequest{N: 8, C: 4, Seed: seed}
	req.Normalize()
	if _, _, err := req.Solve(context.Background(), store); err != nil {
		return kv{}, fmt.Errorf("store probe: %w", err)
	}
	us, err := batchMedian(func() error {
		_, _, err := req.Solve(context.Background(), store)
		return err
	})
	if err != nil {
		return kv{}, fmt.Errorf("store probe: %w", err)
	}
	if c := store.Counters(); c.Solves != 1 {
		return kv{}, fmt.Errorf("store probe: %d solves, want 1", c.Solves)
	}
	return kv{"core.store_hit_us", us, ""}, nil
}

// apiProbes times decoding the given request bodies the way the daemon does
// (strict JSON decode, Normalize, Validate) and encoding the responses, per
// request.
func apiProbes(solveBody, evalBody []byte, solve api.SolveResponse, eval api.EvalResponse) ([]kv, error) {
	decode, err := batchMedian(func() error {
		var s api.SolveRequest
		if err := strictDecode(solveBody, &s); err != nil {
			return err
		}
		s.Normalize()
		if err := s.Validate(); err != nil {
			return err
		}
		var e api.EvalRequest
		if err := strictDecode(evalBody, &e); err != nil {
			return err
		}
		e.Normalize()
		return e.Validate()
	})
	if err != nil {
		return nil, fmt.Errorf("api probe: decode: %w", err)
	}
	var buf bytes.Buffer
	encode, err := batchMedian(func() error {
		buf.Reset()
		if err := solve.Encode(&buf); err != nil {
			return err
		}
		return eval.Encode(&buf)
	})
	if err != nil {
		return nil, fmt.Errorf("api probe: encode: %w", err)
	}
	return []kv{{"api.decode_us", decode / 2, ""}, {"api.encode_us", encode / 2, ""}}, nil
}

func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// batchMedian runs f in batches of 200 calls and returns the median over
// batches of the mean microseconds per call.
func batchMedian(f func() error) (float64, error) {
	const batch = 200
	var per []float64
	for b := 0; b < 2*probeReps; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/batch)
	}
	return quantile(per, 50), nil
}
