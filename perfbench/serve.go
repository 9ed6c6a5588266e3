package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"explink/internal/api"
	"explink/internal/core"
)

// serve-mixed shape: warm requests at warmRate per second (open loop, half
// solve hits on warmKeys placements warmed in set-up, half evals) behind a
// closed loop of cold 8x8 simulations, on a daemon with one admission slot.
const (
	warmRate    = 40.0
	warmKeys    = 8
	warmConns   = 4 // warm requests in flight at once; more wait in the client
	coldWarmup  = 500
	coldMeasure = 5000
	coldRate    = 0.02
	fpColdOps   = 64 // cold requests the simulator fingerprint sums over
)

// daemon is a running explinkd subprocess.
type daemon struct {
	cmd        *exec.Cmd
	base       string        // http://host:port
	stderrDone chan struct{} // closed once stderr hits EOF
}

// startDaemon starts explinkd on a free loopback port with one admission
// slot and waits until it listens.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no explinkd binary given (-explinkd)")
	}
	cmd := exec.Command(path, "-addr", "127.0.0.1:0", "-max-inflight", "1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting explinkd: %w", err)
	}
	d := &daemon{cmd: cmd, stderrDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "explinkd: listening on "); ok {
				addr <- a
			}
		}
	}()
	select {
	case d.base = <-addr:
	case <-d.stderrDone:
		d.stop()
		return nil, errors.New("explinkd exited before listening")
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("explinkd did not listen within 20s")
	}
	return d, nil
}

// stop drains the daemon with SIGTERM (SIGKILL if it lingers) and waits for
// it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.stderrDone:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // fails only if it already exited
		<-d.stderrDone
	}
	_ = d.cmd.Wait() // a drained daemon exits 0; a killed one has no result to report
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// lane returns an HTTP client that holds at most conns keep-alive
// connections.
func lane(conns int) *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
}

// post sends one JSON body and returns the status and response body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return out, err
}

// warmSet is what set-up prepares: the warmed placements' request bodies
// and the exact response bytes every later request must repeat.
type warmSet struct {
	solveBody, solveWant [][]byte
	evalBody, evalWant   [][]byte
	solveResp            []api.SolveResponse
	evalResp             []api.EvalResponse
}

// prewarm solves every warm key once through the daemon and prepares the
// eval requests of the resulting placements with their in-process answers.
func prewarm(c *http.Client, base string, keySeeds []uint64) (*warmSet, error) {
	w := &warmSet{}
	for _, seed := range keySeeds {
		body, _ := json.Marshal(api.SolveRequest{N: 8, C: 4, Seed: seed}) // plain struct, always marshals
		status, got, err := post(c, base+"/v1/solve", body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("pre-warm solve: status %d: %v", status, err)
		}
		var sr api.SolveResponse
		if err := json.Unmarshal(got, &sr); err != nil {
			return nil, fmt.Errorf("pre-warm solve response: %w", err)
		}
		ev := api.EvalRequest{N: 8, C: 4, Express: sr.Best.Express}
		evBody, _ := json.Marshal(ev)
		ev.Normalize()
		if err := ev.Validate(); err != nil {
			return nil, fmt.Errorf("eval of warmed placement: %w", err)
		}
		er, err := ev.Eval()
		if err != nil {
			return nil, fmt.Errorf("eval of warmed placement: %w", err)
		}
		var want bytes.Buffer
		if err := er.Encode(&want); err != nil {
			return nil, err
		}
		w.solveBody = append(w.solveBody, body)
		w.solveWant = append(w.solveWant, got)
		w.solveResp = append(w.solveResp, sr)
		w.evalBody = append(w.evalBody, evBody)
		w.evalWant = append(w.evalWant, want.Bytes())
		w.evalResp = append(w.evalResp, er)
	}
	return w, nil
}

// health reads the daemon's placement-store counters.
func health(c *http.Client, base string) (core.StoreCounters, error) {
	body, err := get(c, base+"/healthz")
	if err != nil {
		return core.StoreCounters{}, err
	}
	var h struct {
		Cache core.StoreCounters `json:"cache"`
	}
	err = json.Unmarshal(body, &h)
	return h.Cache, err
}

// scrape reads the daemon's /metrics exposition into series.
func scrape(c *http.Client, base string) (series, error) {
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	s := series{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// warmReq is one scheduled warm request and what happened to it.
type warmReq struct {
	due        time.Duration // since the timed phase began
	eval       bool
	key        int
	sent, recv time.Time
	status     int // 0 when the request never got a response
	ok         bool
	spanTime   time.Duration // spent recording this request's spans
}

// coldReq is one cold simulation request and what happened to it.
type coldReq struct {
	sent, recv    time.Time
	status        int
	ok            bool
	cycles, flits int64
}

// schedule draws the warm lane's Poisson arrivals for the timed phase.
func schedule(seed uint64, seconds float64) []warmReq {
	s := seeds(seed, "serve-mixed/arrivals", 2)
	rng := rand.New(rand.NewPCG(s[0], s[1]))
	var out []warmReq
	t := 0.0
	for {
		t += rng.ExpFloat64() / warmRate
		if t >= seconds {
			return out
		}
		out = append(out, warmReq{due: time.Duration(t * float64(time.Second)),
			eval: rng.IntN(2) == 1, key: rng.IntN(warmKeys)})
	}
}

// runServeMixed times warm requests queued behind cold simulations on an
// explinkd subprocess with one admission slot.
func runServeMixed(cfg *config) (*outcome, error) {
	oc := &outcome{}
	keySeeds := seeds(cfg.seed, "serve-mixed/keys", warmKeys)
	setupClient := lane(1)

	// Set-up: start the daemon and pre-warm its store. Earlier repetitions'
	// daemons are stopped; the last one serves the timed phase.
	var d *daemon
	var warm *warmSet
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg.explinkd); err != nil {
			return nil, err
		}
		if _, err = health(setupClient, d.base); err == nil {
			warm, err = prewarm(setupClient, d.base, keySeeds)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		oc.setup = append(oc.setup, time.Since(t0).Seconds())
	}
	defer d.stop()

	sched := schedule(cfg.seed, cfg.seconds)
	h0, err := health(setupClient, d.base)
	if err != nil {
		return nil, err
	}
	var m0 series
	if cfg.trace {
		t0 := time.Now()
		if m0, err = scrape(setupClient, d.base); err != nil {
			return nil, err
		}
		cfg.tr.add("http.metrics", 0, 0, t0, time.Now())
	}

	cpu0 := readCPUTimes()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var cold []coldReq
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cold = coldLane(lane(1), d.base, cfg, deadline)
	}()
	go func() {
		defer wg.Done()
		warmLane(d.base, cfg, warm, sched, start)
	}()
	wg.Wait()
	oc.wall = time.Since(start).Seconds()
	oc.steal = stealShare(cpu0, readCPUTimes())

	h1, err := health(setupClient, d.base)
	if err != nil {
		return nil, err
	}
	var m1 series
	if cfg.trace {
		t0 := time.Now()
		if m1, err = scrape(setupClient, d.base); err != nil {
			return nil, err
		}
		cfg.tr.add("http.metrics", 0, 0, t0, time.Now())
	}
	oc.rssMB = peakRSSMB(d.pid())

	var warmSolves, nCold int
	var clientMs float64
	var spanTime time.Duration
	for _, r := range sched {
		spanTime += r.spanTime
		oc.attempted++
		if !r.ok {
			oc.failed++
			continue
		}
		oc.completed++
		if !r.eval {
			warmSolves++
		}
		oc.lat = append(oc.lat, ms(r.recv.Sub(start.Add(r.due))))
		clientMs += ms(r.recv.Sub(r.sent))
	}
	var fpCycles, fpFlits int64
	for i, r := range cold {
		oc.attempted++
		if !r.ok {
			oc.failed++
			continue
		}
		oc.completed++
		nCold++
		oc.cold = append(oc.cold, ms(r.recv.Sub(r.sent)))
		if i < fpColdOps {
			fpCycles += r.cycles
			fpFlits += r.flits
		}
	}
	oc.incorrect = incorrect(sched, cold)
	oc.fingerprint = []kv{
		{"sim.cycles", float64(fpCycles), ""},
		{"sim.flits_delivered", float64(fpFlits), ""},
		{"core.solves", float64(h1.Solves - h0.Solves), ""},
		{"core.store_hits", float64(h1.Hits - h0.Hits), ""},
		{"warm.requests", float64(len(sched)), ""},
	}
	if nCold < fpColdOps {
		fmt.Printf("note: only %d cold requests; sim fingerprints sum over them\n", nCold)
	}

	if cfg.trace {
		dm := m1.minus(m0)
		handler := func(op string) float64 {
			key := `{op="` + op + `"}`
			return 1e3 * ratio(dm["serve_request_seconds_total"+key], dm["serve_request_total"+key])
		}
		warmHandlerMs := 1e3 * (dm[`serve_request_seconds_total{op="solve"}`] + dm[`serve_request_seconds_total{op="eval"}`])
		var late []float64
		for _, r := range sched {
			if r.ok {
				late = append(late, ms(r.sent.Sub(start.Add(r.due))))
			}
		}
		hits, solves := float64(h1.Hits-h0.Hits), float64(h1.Solves-h0.Solves)
		oc.layer = append(oc.layer,
			kv{"serve.handler_ms.solve", handler("solve"), ""},
			kv{"serve.handler_ms.eval", handler("eval"), ""},
			kv{"serve.handler_ms.sim", handler("sim"), ""},
			kv{"serve.queue_ms", ratio(clientMs-warmHandlerMs, float64(oc.completed-nCold)), ""},
			kv{"serve.rejected", dm.sum("serve_rejected_total"), ""},
			kv{"serve.warm_overlap_share", overlapShare(sched, cold), ""},
			kv{"gen.late_p90_ms", quantile(late, 90), ""},
			kv{"core.solves", ratio(solves, float64(warmSolves)), ""},
			kv{"core.store_hits", ratio(hits, float64(warmSolves)), ""},
			kv{"core.store_hit_ratio", ratio(hits, hits+solves), ""},
			// The daemon works the same traced or not (its /metrics is always
			// on), so tracing costs only the warm lane's span recording.
			kv{"obs.overhead_pct", 100 * ratio(ms(spanTime)/float64(len(sched)), quantile(oc.lat, 50)), ""},
		)
		oc.layer = append(oc.layer, simLayer(dm, float64(nCold))...)
		probes, err := simProbes(cfg.seed)
		if err != nil {
			return nil, err
		}
		oc.layer = append(oc.layer, probes...)
		hit, err := storeHitProbe(cfg.seed)
		if err != nil {
			return nil, err
		}
		oc.layer = append(oc.layer, hit)
		ap, err := apiProbes(warm.solveBody[0], warm.evalBody[0], warm.solveResp[0], warm.evalResp[0])
		if err != nil {
			return nil, err
		}
		oc.layer = append(oc.layer, ap...)
	}
	return oc, nil
}

// coldLane sends /v1/sim requests back to back until the deadline, each with
// a fresh seed from the workload seed's stream.
func coldLane(c *http.Client, base string, cfg *config, deadline time.Time) []coldReq {
	stream := seeds(cfg.seed, "serve-mixed/cold", 1)[0]
	var out []coldReq
	for op := 1; time.Now().Before(deadline); op++ {
		body, _ := json.Marshal(api.SimRequest{N: 8, Rate: coldRate, Warmup: coldWarmup, Measure: coldMeasure, Seed: splitmix64(&stream) | 1})
		var r coldReq
		r.sent = time.Now()
		status, got, err := post(c, base+"/v1/sim", body)
		r.recv, r.status = time.Now(), status
		root := cfg.tr.add("cold.request", op, 0, r.sent, r.recv)
		cfg.tr.add("http.sim", op, root, r.sent, r.recv)
		if err == nil && status == http.StatusOK {
			var sr api.SimResponse
			if json.Unmarshal(got, &sr) == nil && sr.Error == nil && sr.Result != nil && sr.Result.Drained {
				r.ok = true
				r.cycles, r.flits = sr.Result.Cycles, sr.Result.Counts.FlitsEjected
			}
		}
		if !r.ok {
			fmt.Printf("cold request %d failed: status %d err %v\n", op, status, err)
		}
		out = append(out, r)
	}
	return out
}

// warmLane sends every scheduled request at its due time from a goroutine of
// its own, over a small pool of keep-alive connections, so a warm request
// waits only in the daemon and never behind an earlier warm request in the
// client. It checks every response against set-up and returns once all have
// answered.
func warmLane(base string, cfg *config, warm *warmSet, sched []warmReq, start time.Time) {
	c := lane(warmConns)
	var wg sync.WaitGroup
	for i := range sched {
		r := &sched[i]
		due := start.Add(r.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			url, body, want := base+"/v1/solve", warm.solveBody[r.key], warm.solveWant[r.key]
			name := "http.solve"
			if r.eval {
				url, body, want, name = base+"/v1/eval", warm.evalBody[r.key], warm.evalWant[r.key], "http.eval"
			}
			r.sent = time.Now()
			status, got, err := post(c, url, body)
			r.recv, r.status = time.Now(), status
			r.ok = err == nil && status == http.StatusOK && bytes.Equal(got, want)
			if !r.ok {
				fmt.Printf("warm request %d (%s) failed: status %d err %v\n", i, name, status, err)
			}
			if cfg.tr != nil {
				t0 := time.Now()
				root := cfg.tr.reserve("warm.request", i, 0)
				cfg.tr.finish(root, due, r.recv)
				cfg.tr.add("gen.wait", i, root, due, r.sent)
				cfg.tr.add(name, i, root, r.sent, r.recv)
				r.spanTime = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	c.CloseIdleConnections()
}

// incorrect reports whether any response came back but failed its output
// check; a refused request (503, 429) or a transport error is a failure, not
// a wrong answer.
func incorrect(sched []warmReq, cold []coldReq) bool {
	wrong := func(ok bool, status int) bool {
		return !ok && status != 0 && status != http.StatusServiceUnavailable && status != http.StatusTooManyRequests
	}
	for _, r := range sched {
		if wrong(r.ok, r.status) {
			return true
		}
	}
	for _, r := range cold {
		if wrong(r.ok, r.status) {
			return true
		}
	}
	return false
}

// overlapShare is the share of warm requests sent while a cold simulation
// request was outstanding — the requests that put the daemon's promise (a
// cache hit never waits behind a simulation) to the test. The cold lane is
// sequential, so cold is already ordered by send time.
func overlapShare(sched []warmReq, cold []coldReq) float64 {
	if len(sched) == 0 {
		return 0
	}
	n := 0
	for _, r := range sched {
		i := sort.Search(len(cold), func(i int) bool { return cold[i].sent.After(r.sent) })
		if i > 0 && cold[i-1].recv.After(r.sent) {
			n++
		}
	}
	return float64(n) / float64(len(sched))
}
