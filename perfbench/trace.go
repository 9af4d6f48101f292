package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/maphash"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"rlsched/internal/serve"
)

// Spans are recorded by the benchmark's own wrappers around the calls
// into each layer — the program itself is not instrumented. A span
// carries its name, start and end (ns since the tracer started), its
// parent span and the request id it belongs to. Parents are resolved when
// the spans are written: a request's engine spans nest in its handler
// span, which nests in its client span.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e6 } // ms

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped (layer metrics from accumulators are unaffected).
const maxSpans = 400_000

type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, req int64, start, end time.Time) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Name: name, Req: req,
			Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		})
	}
	t.mu.Unlock()
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.dropped = t.spans[:0], 0
	t.mu.Unlock()
}

// link sets each span's parent to the innermost span of the parent name
// with the same request id that contains it in time.
func (t *tracer) link(child, parent string) {
	parents := map[int64][]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			parents[s.Req] = append(parents[s.Req], i)
		}
	}
	for i := range t.spans {
		c := &t.spans[i]
		if c.Name != child {
			continue
		}
		for _, pi := range parents[c.Req] {
			p := t.spans[pi]
			if p.Start <= c.Start && c.End <= p.End {
				c.Parent = p.ID
			}
		}
	}
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqHeader carries the benchmark's request id to the handler middleware.
// The daemon never reads it.
const reqHeader = "X-Bench-Req"

// middleware records one serve.handler span per request around the
// daemon's whole HTTP handler.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t.add("serve.handler", req, t0, time.Now())
	})
}

// engineStats accumulates what the traced engines see.
type engineStats struct {
	mu       sync.Mutex
	calls    int
	states   int
	busy     time.Duration
	callMS   []float64
	visRows  int64
	padRows  int64
	seen     map[uint64]struct{}
	repeats  int
	hashSeed maphash.Seed
}

func newEngineStats() *engineStats {
	return &engineStats{seen: map[uint64]struct{}{}, hashSeed: maphash.MakeSeed()}
}

// reset forgets the calls counted so far (the warm-up's).
func (s *engineStats) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls, s.states, s.busy, s.callMS = 0, 0, 0, s.callMS[:0]
	s.visRows, s.padRows, s.repeats = 0, 0, 0
	s.seen = map[uint64]struct{}{}
}

// tracedEngine wraps a serve.Engine (the server type-asserts no optional
// engine interface, so Name/MaxJobs/DecideBatch is the whole surface). It
// records one engine.decide span per state, tagged with the request id
// reqOf reads from the state's job IDs.
type tracedEngine struct {
	inner serve.Engine
	tr    *tracer
	st    *engineStats
	reqOf func(*serve.QueueState) int64
}

func (e *tracedEngine) Name() string { return e.inner.Name() }
func (e *tracedEngine) MaxJobs() int { return e.inner.MaxJobs() }

func (e *tracedEngine) DecideBatch(states []*serve.QueueState, out []serve.Decision) {
	t0 := time.Now()
	e.inner.DecideBatch(states, out)
	t1 := time.Now()
	for _, st := range states {
		e.tr.add("engine.decide", e.reqOf(st), t0, t1)
	}
	maxJobs := e.inner.MaxJobs()
	var h maphash.Hash
	h.SetSeed(e.st.hashSeed)
	keys := make([]uint64, len(states))
	vis := 0
	for i, st := range states {
		keys[i] = stateKey(&h, st, maxJobs)
		vis += min(len(st.Jobs), maxJobs)
	}
	e.st.add(t1.Sub(t0), vis, len(states)*maxJobs, keys)
}

// add counts one engine call: its duration, the real and padded
// observation rows it received, and one decision key per state — states
// whose key was seen before are repeats.
func (s *engineStats) add(d time.Duration, visRows, padRows int, keys []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	s.states += len(keys)
	s.busy += d
	s.callMS = append(s.callMS, float64(d)/1e6)
	s.visRows += int64(visRows)
	s.padRows += int64(padRows)
	for _, k := range keys {
		if _, ok := s.seen[k]; ok {
			s.repeats++
		} else {
			s.seen[k] = struct{}{}
		}
	}
}

// stateKey hashes exactly the inputs of the observation sim.BuildObsInto
// builds for the kernel policy: per visible job its wait (clamped at 0),
// requested time and processors; the free and total processors; and the
// queue length capped at the observation window. Two states with equal
// keys get the same observation and hence the same decision.
func stateKey(h *maphash.Hash, st *serve.QueueState, maxJobs int) uint64 {
	h.Reset()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	jobs := st.Jobs
	if maxJobs > 0 && len(jobs) > maxJobs {
		jobs = jobs[:maxJobs]
	}
	for _, j := range jobs {
		put(math.Max(0, st.Now-j.SubmitTime))
		put(j.RequestedTime)
		put(float64(j.RequestedProcs))
	}
	put(float64(st.View.FreeProcs))
	put(float64(st.View.TotalProcs))
	ql := st.QueueLen
	if ql < len(st.Jobs) {
		ql = len(st.Jobs)
	}
	if maxJobs > 0 && ql > maxJobs {
		ql = maxJobs
	}
	put(float64(ql))
	return h.Sum64()
}

// engineLayer turns engine stats into the engine.* and input.* metrics.
// ops is the number of requests the engines served; wall the measured
// phase length.
func (s *engineStats) engineLayer(rep *report, ops int64, wall time.Duration) {
	rep.layer["engine.call_ms"] = measured{medianOr0(s.callMS), "ms", s.calls}
	rep.layer["engine.calls_per_op"] = measured{ratio(float64(s.calls), float64(ops)), "count", int(ops)}
	rep.layer["engine.states_per_call"] = measured{ratio(float64(s.states), float64(s.calls)), "count", s.calls}
	rep.layer["engine.busy_share"] = measured{
		ratio(s.busy.Seconds(), wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio", s.calls}
	rep.layer["input.visible_row_share"] = measured{ratio(float64(s.visRows), float64(s.padRows)), "ratio", s.states}
	rep.layer["input.repeat_state_share"] = measured{ratio(float64(s.repeats), float64(s.states)), "ratio", s.states}
}

// requestSpans joins each handler span with the client span around it
// and the engine spans inside it.
type requestSpans struct {
	client, handler span
	engines         []span
}

func (t *tracer) requests() []requestSpans {
	t.link("serve.handler", "client.request")
	t.link("engine.decide", "serve.handler")
	var out []requestSpans
	idx := map[int]int{} // handler span id -> out index
	for _, s := range t.spans {
		if s.Name != "serve.handler" || s.Parent == 0 {
			continue
		}
		idx[s.ID] = len(out)
		out = append(out, requestSpans{client: t.spans[s.Parent-1], handler: s}) // span IDs are index+1
	}
	for _, s := range t.spans {
		if s.Name != "engine.decide" || s.Parent == 0 {
			continue
		}
		if k, ok := idx[s.Parent]; ok {
			out[k].engines = append(out[k].engines, s)
		}
	}
	for k := range out {
		sort.Slice(out[k].engines, func(a, b int) bool { return out[k].engines[a].Start < out[k].engines[b].Start })
	}
	return out
}
