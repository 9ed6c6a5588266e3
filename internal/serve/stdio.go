package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"explink/internal/api"
	"explink/internal/runctl"
	"explink/internal/stats"
)

// The stdio transport speaks newline-delimited JSON, the protocol shape an
// external timing engine (BookSim-style main-engine + service split) drives:
// one request object per line in, one response object per line out, matched
// by the client-chosen id. Requests dispatch concurrently through the same
// admission path as HTTP (Server.begin): only cold compute waits for a gate
// slot, so a cache hit or an eval answers while a simulation holds every
// slot. Response order is therefore not request order — clients correlate
// by id.
//
//	→ {"id":1,"op":"solve","req":{"n":8,"c":5}}
//	← {"id":1,"ok":true,"result":{"best":{...},"all":[...]}}
//	→ {"id":2,"op":"eval","req":{"n":8,"c":3,"express":[...]}}
//	← {"id":2,"ok":false,"error":{"kind":"config","message":"..."}}
//
// Ops: solve, eval, sim, exp, pareto (api.SolveRequest/EvalRequest/
// SimRequest/ExpRequest/ParetoRequest payloads), ping (liveness + drain
// status, never gated) and shutdown (stop reading, finish in-flight work,
// exit the loop).

// stdioRequest is one inbound line.
type stdioRequest struct {
	// ID is echoed verbatim on the response; any JSON value works.
	ID json.RawMessage `json:"id,omitempty"`
	// Op selects the operation: solve, eval, sim, exp, pareto, ping,
	// shutdown.
	Op string `json:"op"`
	// Req is the op's request payload (same schema as the HTTP body).
	Req json.RawMessage `json:"req,omitempty"`
}

// stdioResponse is one outbound line. A truncated run (drain, deadlock) can
// carry both a partial Result and the classifying Error; OK reports whether
// the op completed cleanly.
type stdioResponse struct {
	ID     json.RawMessage `json:"id,omitempty"`
	OK     bool            `json:"ok"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *api.ErrorBody  `json:"error,omitempty"`
}

// stdioMaxLine bounds one request line (an /v1/eval traffic matrix is the
// largest legitimate payload).
const stdioMaxLine = maxBodyBytes

// ServeStdio runs the JSON-lines protocol over r/w until EOF, a shutdown op,
// ctx cancellation or BeginDrain, whichever comes first; it waits for
// in-flight ops before returning. Responses are written whole-line under a
// mutex, so concurrent ops never interleave bytes.
func (s *Server) ServeStdio(ctx context.Context, r io.Reader, w io.Writer) error {
	var (
		wmu sync.Mutex
		wg  sync.WaitGroup
	)
	write := func(resp stdioResponse) {
		buf, err := json.Marshal(resp)
		if err != nil {
			// Result was pre-sanitized; this is unreachable short of a broken
			// ID payload. Degrade to a bare error line.
			buf, _ = json.Marshal(stdioResponse{ID: resp.ID, Error: &api.ErrorBody{Kind: "internal", Message: err.Error()}})
		}
		wmu.Lock()
		defer wmu.Unlock()
		w.Write(append(buf, '\n'))
	}

	// The blocking line reader runs in its own goroutine so the dispatch
	// loop can also notice cancellation/drain; after either, the reader
	// goroutine dies with the process (or on stdin close).
	lines := make(chan []byte)
	readErr := make(chan error, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), stdioMaxLine)
		for sc.Scan() {
			line := make([]byte, len(sc.Bytes()))
			copy(line, sc.Bytes())
			select {
			case lines <- line:
			case <-ctx.Done():
				return
			case <-s.base.Done():
				return
			}
		}
		readErr <- sc.Err()
	}()

	defer wg.Wait()
	for {
		select {
		case <-ctx.Done():
			return runctl.Cancelled(ctx)
		case <-s.base.Done():
			return nil // draining: stop admitting, finish in-flight (deferred wg.Wait)
		case line, ok := <-lines:
			if !ok {
				select {
				case err := <-readErr:
					return err
				default:
					return nil
				}
			}
			var req stdioRequest
			if err := json.Unmarshal(line, &req); err != nil {
				write(stdioResponse{Error: &api.ErrorBody{Kind: "config",
					Message: fmt.Sprintf("bad request line: %v", err)}})
				continue
			}
			switch req.Op {
			case "ping":
				status := "ok"
				if s.gate.draining() {
					status = "draining"
				}
				raw, _ := json.Marshal(map[string]string{"status": status, "schema": api.SchemaVersion})
				write(stdioResponse{ID: req.ID, OK: true, Result: raw})
			case "shutdown":
				write(stdioResponse{ID: req.ID, OK: true})
				return nil
			case "solve", "eval", "sim", "exp", "pareto":
				wg.Add(1)
				go func(req stdioRequest) {
					defer wg.Done()
					write(s.stdioDispatch(ctx, req))
				}(req)
			default:
				write(stdioResponse{ID: req.ID, Error: &api.ErrorBody{Kind: "config",
					Message: fmt.Sprintf("unknown op %q", req.Op)}})
			}
		}
	}
}

// stdioDispatch runs one op and builds its response line. It mirrors the
// HTTP path: same admission path (begin), same drain-aware context, same
// request types, same error taxonomy, metrics under the op's own label —
// only the framing differs.
func (s *Server) stdioDispatch(ctx context.Context, req stdioRequest) stdioResponse {
	op := req.Op
	s.met.request(op)
	ctx, done, err := s.begin(ctx, op)
	if err != nil {
		s.met.failure(op)
		return stdioError(req.ID, err)
	}
	defer done()

	result, err := s.stdioRun(ctx, req)
	if result == nil {
		s.met.failure(op)
		return stdioError(req.ID, err)
	}
	raw, _, merr := stats.MarshalSanitized(result)
	if merr != nil {
		s.met.failure(op)
		return stdioError(req.ID, merr)
	}
	resp := stdioResponse{ID: req.ID, OK: err == nil, Result: raw}
	if err != nil {
		s.met.failure(op)
		resp.Error = api.ErrorBodyOf(err)
	}
	return resp
}

// stdioRun parses, validates and executes one op payload, returning the
// response value to marshal (nil means pure failure) and the run error. A
// truncated sim run returns both: partial data plus its classifying error.
func (s *Server) stdioRun(ctx context.Context, req stdioRequest) (any, error) {
	switch req.Op {
	case "solve":
		var sr api.SolveRequest
		if err := unmarshalReq(req.Req, &sr); err != nil {
			return nil, err
		}
		sr.Normalize()
		if err := sr.Validate(); err != nil {
			return nil, err
		}
		best, all, err := sr.Solve(ctx, s.store)
		if err != nil {
			return nil, err
		}
		return api.NewSolveResponse(best, all), nil
	case "eval":
		var er api.EvalRequest
		if err := unmarshalReq(req.Req, &er); err != nil {
			return nil, err
		}
		er.Normalize()
		if err := er.Validate(); err != nil {
			return nil, err
		}
		resp, err := er.Eval()
		if err != nil {
			return nil, err
		}
		return resp, nil
	case "sim":
		var mr api.SimRequest
		if err := unmarshalReq(req.Req, &mr); err != nil {
			return nil, err
		}
		mr.Normalize()
		if err := mr.Validate(); err != nil {
			return nil, err
		}
		resp, err := s.runSim(ctx, &mr)
		if err != nil && !resp.Partial() {
			return nil, err
		}
		resp.Error = api.ErrorBodyOf(err)
		return resp, err
	case "exp":
		var xr api.ExpRequest
		if err := unmarshalReq(req.Req, &xr); err != nil {
			return nil, err
		}
		xr.Normalize()
		if err := xr.Validate(); err != nil {
			return nil, err
		}
		sel, err := selectAndAdmit(ctx, &xr)
		if err != nil {
			return nil, err
		}
		return s.runExp(ctx, sel, &xr, nil), nil
	case "pareto":
		var pr api.ParetoRequest
		if err := unmarshalReq(req.Req, &pr); err != nil {
			return nil, err
		}
		pr.Normalize()
		if err := pr.Validate(); err != nil {
			return nil, err
		}
		f, err := pr.Solve(ctx, s.store)
		if err != nil {
			return nil, err
		}
		return api.NewParetoResponse(f), nil
	}
	return nil, fmt.Errorf("unknown op %q: %w", req.Op, runctl.ErrConfig)
}

func stdioError(id json.RawMessage, err error) stdioResponse {
	_, kind := statusOf(err)
	return stdioResponse{ID: id, Error: &api.ErrorBody{Kind: kind, Message: err.Error()}}
}

// unmarshalReq parses an op payload strictly, classifying failures as config
// errors like the HTTP body decoder.
func unmarshalReq(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		raw = []byte("{}")
	}
	return decodeBody(bytes.NewReader(raw), v)
}
