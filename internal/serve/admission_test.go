package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"explink/internal/api"
	"explink/internal/obs"
)

const (
	warmSolveBody = `{"n":6,"c":3}`
	warmEvalBody  = `{"n":6,"c":2,"express":[{"From":0,"To":3}]}`
)

// postWithin is post with a client deadline: a request that queues behind a
// held gate slot fails the test instead of hanging it.
func postWithin(t *testing.T, d time.Duration, url, body string) (int, []byte) {
	t.Helper()
	c := &http.Client{Timeout: d}
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s within %v: %v", url, d, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf
}

// recvWithin is stdioSession.recv with a deadline.
func (ss *stdioSession) recvWithin(t *testing.T, d time.Duration) stdioResponse {
	t.Helper()
	got := make(chan []byte, 1)
	go func() {
		if ss.out.Scan() {
			got <- append([]byte(nil), ss.out.Bytes()...)
		}
		close(got)
	}()
	select {
	case line, ok := <-got:
		if !ok {
			t.Fatalf("stdio output closed early: %v", ss.out.Err())
		}
		var resp stdioResponse
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("response line not JSON: %v\n%s", err, line)
		}
		return resp
	case <-time.After(d):
		t.Fatalf("no stdio response within %v", d)
	}
	return stdioResponse{}
}

// holdAllSlots takes every gate slot, as long cold requests would, and
// returns the func that gives them back.
func holdAllSlots(t *testing.T, srv *Server) func() {
	t.Helper()
	var rels []func()
	for i := 0; i < cap(srv.gate.sem); i++ {
		rel, err := srv.gate.acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	return func() {
		for _, rel := range rels {
			rel()
		}
	}
}

func errorKind(t *testing.T, buf []byte) string {
	t.Helper()
	var body struct {
		Error api.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(buf, &body); err != nil {
		t.Fatalf("error body not JSON: %v\n%s", err, buf)
	}
	return body.Error.Kind
}

// TestWarmPathBypassesFullGate pins the cost-aware admission promise over
// both transports: with every gate slot held, a warm /v1/solve hit and a
// /v1/eval still answer promptly and byte-identically, and /metrics shows
// them as gate bypasses.
func TestWarmPathBypassesFullGate(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 4, Reg: reg})
	ss := startStdio(t, srv)

	code, coldSolve := post(t, ts.URL+"/v1/solve", warmSolveBody)
	if code != http.StatusOK {
		t.Fatalf("pre-warm solve: status %d: %s", code, coldSolve)
	}
	code, refEval := post(t, ts.URL+"/v1/eval", warmEvalBody)
	if code != http.StatusOK {
		t.Fatalf("reference eval: status %d: %s", code, refEval)
	}
	ss.send(t, `{"id":1,"op":"solve","req":`+warmSolveBody+`}`)
	stdioSolve := ss.recv(t)
	ss.send(t, `{"id":2,"op":"eval","req":`+warmEvalBody+`}`)
	stdioEval := ss.recv(t)
	if !stdioSolve.OK || !stdioEval.OK {
		t.Fatalf("stdio references failed: %+v %+v", stdioSolve.Error, stdioEval.Error)
	}

	release := holdAllSlots(t, srv)
	defer release()
	const prompt = 5 * time.Second

	if code, buf := postWithin(t, prompt, ts.URL+"/v1/solve", warmSolveBody); code != http.StatusOK || !bytes.Equal(buf, coldSolve) {
		t.Fatalf("warm solve behind a full gate: status %d, bytes equal %v", code, bytes.Equal(buf, coldSolve))
	}
	if code, buf := postWithin(t, prompt, ts.URL+"/v1/eval", warmEvalBody); code != http.StatusOK || !bytes.Equal(buf, refEval) {
		t.Fatalf("eval behind a full gate: status %d, bytes equal %v", code, bytes.Equal(buf, refEval))
	}
	ss.send(t, `{"id":3,"op":"solve","req":`+warmSolveBody+`}`)
	if resp := ss.recvWithin(t, prompt); !resp.OK || !bytes.Equal(resp.Result, stdioSolve.Result) {
		t.Fatalf("stdio warm solve behind a full gate: %+v", resp.Error)
	}
	ss.send(t, `{"id":4,"op":"eval","req":`+warmEvalBody+`}`)
	if resp := ss.recvWithin(t, prompt); !resp.OK || !bytes.Equal(resp.Result, stdioEval.Result) {
		t.Fatalf("stdio eval behind a full gate: %+v", resp.Error)
	}

	ss.send(t, `{"op":"shutdown"}`)
	ss.recv(t)
	if err := <-ss.done; err != nil {
		t.Fatal(err)
	}

	if c := srv.Store().Counters(); c.Solves != 1 {
		t.Fatalf("store counters %s: warm queries re-solved", c)
	}
	snap := reg.Snapshot()
	want := map[string]float64{
		`serve_gate_wait_total{op="solve"}`: 1, // the pre-warm solve only
		`serve_gate_wait_total{op="eval"}`:  0,
		`serve_bypass_total{op="solve"}`:    3, // stdio reference + two warm hits
		`serve_bypass_total{op="eval"}`:     4,
		`serve_requests_total{op="solve"}`:  4,
		`serve_requests_total{op="eval"}`:   4,
	}
	for series, v := range want {
		if snap[series] != v {
			t.Errorf("%s = %v, want %v", series, snap[series], v)
		}
	}
}

// TestColdPathStaysBounded: with every slot held, a cold solve queues, and
// once the queue is full further cold work (a solve, a simulation) is
// refused with 503 overloaded. Releasing the slot lets the queued solve run.
func TestColdPathStaysBounded(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1, Reg: reg})
	release := holdAllSlots(t, srv)

	type outcome struct {
		code int
		buf  []byte
	}
	queued := make(chan outcome, 1)
	go func() {
		code, buf := post(t, ts.URL+"/v1/solve", `{"n":6,"c":2}`)
		queued <- outcome{code, buf}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.queued() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold solve never queued for a slot")
		}
		time.Sleep(time.Millisecond)
	}

	for _, c := range []struct{ path, body string }{
		{"/v1/solve", `{"n":6,"c":3}`},
		{"/v1/sim", `{"n":4,"warmup":100,"measure":500}`},
	} {
		code, buf := post(t, ts.URL+c.path, c.body)
		if code != http.StatusServiceUnavailable || errorKind(t, buf) != "overloaded" {
			t.Fatalf("%s with the queue full: status %d: %s", c.path, code, buf)
		}
	}
	if n := reg.Snapshot()[`serve_rejected_total{reason="overloaded"}`]; n != 2 {
		t.Fatalf("overloaded rejections counted %v, want 2", n)
	}

	release()
	oc := <-queued
	if oc.code != http.StatusOK {
		t.Fatalf("queued cold solve: status %d: %s", oc.code, oc.buf)
	}
	if c := srv.Store().Counters(); c.Solves != 1 {
		t.Fatalf("store counters %s, want exactly the queued solve", c)
	}
}

// TestOneSlotSimAndColdSolveBothComplete is the end-to-end form of the store's
// owner-holds-admission invariant: under MaxInflight 1, a dcsa simulation
// (which solves every link limit of its design) and a cold full-sweep solve
// of the same design run concurrently; both must finish, each row is solved
// once, and the solve bytes still equal the CLI's.
func TestOneSlotSimAndColdSolveBothComplete(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInflight: 1})
	type outcome struct {
		code int
		buf  []byte
	}
	simDone, solveDone := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		code, buf := post(t, ts.URL+"/v1/sim", `{"n":6,"topo":"dcsa","warmup":200,"measure":1000,"drain":5000}`)
		simDone <- outcome{code, buf}
	}()
	go func() {
		code, buf := post(t, ts.URL+"/v1/solve", `{"n":6}`)
		solveDone <- outcome{code, buf}
	}()
	var solved []byte
	for name, ch := range map[string]chan outcome{"sim": simDone, "solve": solveDone} {
		select {
		case oc := <-ch:
			if oc.code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", name, oc.code, oc.buf)
			}
			if name == "solve" {
				solved = oc.buf
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s never finished under MaxInflight 1", name)
		}
	}

	req := api.SolveRequest{N: 6}
	req.Normalize()
	best, all, err := req.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := api.NewSolveResponse(best, all).Encode(&cli); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(solved, cli.Bytes()) {
		t.Fatalf("daemon solve != CLI bytes:\n%s\nvs\n%s", solved, cli.String())
	}
	if c := srv.Store().Counters(); c.Solves != int64(len(all)) {
		t.Fatalf("store counters %s, want each of %d rows solved once", c, len(all))
	}
}

// TestDrainRefusesWarmWork: bypassing the gate does not bypass drain — after
// BeginDrain a warm hit and an eval are refused with 503 draining, over HTTP
// and stdio alike.
func TestDrainRefusesWarmWork(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if code, buf := post(t, ts.URL+"/v1/solve", warmSolveBody); code != http.StatusOK {
		t.Fatalf("pre-warm solve: status %d: %s", code, buf)
	}
	srv.BeginDrain()
	for _, c := range []struct{ path, body string }{
		{"/v1/solve", warmSolveBody},
		{"/v1/eval", warmEvalBody},
	} {
		code, buf := post(t, ts.URL+c.path, c.body)
		if code != http.StatusServiceUnavailable || errorKind(t, buf) != "draining" {
			t.Fatalf("%s after BeginDrain: status %d: %s", c.path, code, buf)
		}
	}
	for _, op := range []string{"solve", "eval"} {
		body := warmSolveBody
		if op == "eval" {
			body = warmEvalBody
		}
		resp := srv.stdioDispatch(context.Background(), stdioRequest{ID: json.RawMessage(`1`), Op: op, Req: json.RawMessage(body)})
		if resp.OK || resp.Error == nil || resp.Error.Kind != "draining" {
			t.Fatalf("stdio %s after BeginDrain: %+v", op, resp)
		}
	}
	if c := srv.Store().Counters(); c.Solves != 1 || c.Hits != 0 {
		t.Fatalf("store counters %s: drained requests reached the store", c)
	}
}

// TestStdioMetricsUseOpLabel: stdio requests are counted under the op they
// run, so a slow stdio op is attributable from /metrics.
func TestStdioMetricsUseOpLabel(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Reg: reg})
	ss := startStdio(t, srv)
	ss.send(t, `{"id":1,"op":"solve","req":`+warmSolveBody+`}`)
	if resp := ss.recv(t); !resp.OK {
		t.Fatalf("stdio solve: %+v", resp.Error)
	}
	ss.send(t, `{"id":2,"op":"shutdown"}`)
	ss.recv(t)
	if err := <-ss.done; err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for series, v := range map[string]float64{
		`serve_requests_total{op="solve"}`:  1,
		`serve_request_total{op="solve"}`:   1,
		`serve_gate_wait_total{op="solve"}`: 1,
	} {
		if snap[series] != v {
			t.Errorf("%s = %v, want %v", series, snap[series], v)
		}
	}
	for series := range snap {
		if strings.Contains(series, `op="stdio"`) {
			t.Errorf("stdio transport label still exported: %s", series)
		}
	}
}
