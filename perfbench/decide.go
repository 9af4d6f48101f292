package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"rlsched/internal/job"
	"rlsched/internal/sched"
	"rlsched/internal/serve"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// decide-replay: a plain daemon serving a fixed-seed kernel policy, two
// closed-loop clients each sending /v1/decide requests of one queue state.
// Client 0 replays the states an SJF run over Lublin-1 saw at every Pick,
// client 1 the same over PIK-IPLEX: realistic and varied queue lengths with
// an advancing clock, unlike re-posting one synthetic state.

// kernelSeed fixes the served policy's weights.
const kernelSeed = 5

// decideRate bounds the decisions per second one client can reach; each
// client gets enough distinct states for a phase at that rate, so a
// repeat in the stream is a repeat in the replay, not a wrap-around.
const decideRate = 900

// idBase marks request ids: every id is idBase plus a client offset plus
// a sequence number, always 10 digits, so ids can be patched into
// pre-encoded bodies in place.
const idBase = 1_000_000_000

// replayState is one pre-encoded /v1/decide body, the offset of its
// first job's id in the body, and the pick the in-process engine makes.
type replayState struct {
	body  []byte
	idOff int
	want  int
}

// replayWindow is the length of one SJF replay. A stream strings together
// replays of many windows sampled across the trace, so one run averages
// over the trace's quiet and busy stretches instead of depending on where
// a single window happens to start.
const replayWindow = 512

// captureSJF replays windows of the preset trace through SJF until at
// least n states were captured, handing the queue state at every Pick to
// fn. The state's jobs are reused after fn returns.
func captureSJF(preset string, n int, seed int64, fn func(*serve.QueueState)) error {
	tr := trace.Preset(preset, 16*replayWindow, seed)
	if tr == nil {
		return fmt.Errorf("unknown preset %q", preset)
	}
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(sim.Config{Processors: tr.Processors, MaxObserve: sim.DefaultMaxObserve})
	c := &capture{s: s, inner: sched.SJF(), fn: fn}
	for c.n < n {
		if err := s.Load(tr.SampleWindow(rng, replayWindow)); err != nil {
			return err
		}
		if _, err := s.Run(c); err != nil {
			return err
		}
	}
	return nil
}

type capture struct {
	s     *sim.Simulator
	inner sim.Scheduler
	fn    func(*serve.QueueState)
	n     int // states captured
	arena []job.Job
	ptrs  []*job.Job
}

func (c *capture) Pick(visible []*job.Job, now float64, view sim.ClusterView) int {
	c.arena, c.ptrs = c.arena[:0], c.ptrs[:0]
	for _, j := range visible {
		c.arena = append(c.arena, job.Job{
			SubmitTime: j.SubmitTime, RequestedTime: j.RequestedTime,
			RequestedProcs: j.RequestedProcs, UserID: j.UserID, StartTime: -1, EndTime: -1,
		})
	}
	for i := range c.arena {
		c.ptrs = append(c.ptrs, &c.arena[i])
	}
	c.fn(&serve.QueueState{Jobs: c.ptrs, Now: now, View: view, QueueLen: c.s.PendingCount()})
	c.n++
	return c.inner.Pick(visible, now, view)
}

// decideInputs builds both clients' request streams, long enough for one
// phase (every phase replays them from the start): pre-encoded bodies with
// the pick an in-process engine of the same weights makes. Each stream's
// bodies share one exactly sized buffer, so the heap bytes the streams
// occupy, returned second, are known exactly.
func decideInputs(seed int64, seconds float64) ([][]replayState, uint64, error) {
	eng, err := kernelEngine(kernelSeed)
	if err != nil {
		return nil, 0, err
	}
	n := int(decideRate*seconds) + 256
	slot := []byte("," + strconv.Itoa(idBase) + "]")
	var streams [][]replayState
	var size uint64
	for _, preset := range []string{"Lublin-1", "PIK-IPLEX"} {
		var out []replayState
		var bodies [][]byte
		total := 0
		var dec [1]serve.Decision
		var bad error
		err := captureSJF(preset, n, seed, func(st *serve.QueueState) {
			eng.DecideBatch([]*serve.QueueState{st}, dec[:])
			st.Jobs[0].ID = idBase
			body := serve.EncodeStates([]*serve.QueueState{st})
			off := bytes.Index(body, []byte(`"jobs":[`))
			k := -1
			if off >= 0 {
				k = bytes.Index(body[off:], slot)
			}
			if k < 0 {
				bad = fmt.Errorf("request id slot not found in body")
			}
			bodies = append(bodies, body)
			total += len(body)
			out = append(out, replayState{idOff: off + k + 1, want: dec[0].Pick})
		})
		if err == nil {
			err = bad
		}
		if err != nil {
			return nil, 0, err
		}
		arena := make([]byte, 0, total)
		for i, b := range bodies {
			start := len(arena)
			arena = append(arena, b...)
			out[i].body = arena[start:len(arena):len(arena)]
		}
		size += uint64(cap(arena)) + uint64(cap(out))*uint64(unsafe.Sizeof(replayState{}))
		streams = append(streams, out)
	}
	return streams, size, nil
}

// phase is one measured closed-loop phase.
type phase struct {
	ops    int64 // answered requests
	failed int64 // errors and wrong answers
	lat    []float64
	done   []time.Duration // completion instants since the phase start
	wall   time.Duration
}

// rateSlice is about how long the equal slices are that a phase is cut
// into for ops_per_s; a phase shorter than ten of them is cut into ten.
const rateSlice = time.Second

// rate is the median over equal slices of the phase of the answers
// completed per second: a slow stretch of the machine moves only the
// slices it covers, and leaves the median alone while it covers fewer
// than half of them.
func (p phase) rate() float64 {
	n := max(10, int(p.wall/rateSlice))
	slice := p.wall / time.Duration(n)
	if slice <= 0 {
		return 0
	}
	counts := make([]float64, n)
	for _, d := range p.done {
		if i := int(d / slice); i < n {
			counts[i]++
		}
	}
	return median(counts) / slice.Seconds()
}

// maxClientRate bounds the requests per second one closed-loop client can
// send over loopback HTTP (the trivial handler of ref.http_floor_ms takes
// about 50 µs a round trip); it sizes the per-client sample buffers.
const maxClientRate = 50_000

// offHeap returns an empty slice with room for n values in an anonymous
// mapping outside the Go heap, and the function that unmaps it. drive
// records its samples there, so a client's growing sample slices neither
// land in mem_peak_mb (the step at each regrowth made the figure
// bimodal) nor enlarge the heap the collector paces itself by. Should
// the room run out, append moves the slice onto the heap, which is still
// correct; if the mapping fails, the slice starts on the heap.
func offHeap[T float64 | time.Duration](n int) ([]T, func()) {
	size := n * int(unsafe.Sizeof(T(0)))
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n), func() {}
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], func() { syscall.Munmap(b) }
}

// clientFn sends request k of one client and reports its round trip and
// whether the answer was right; timed is false during the warm-up.
type clientFn func(k int, timed bool) (latMS float64, ok bool)

// drive runs one closed loop per client function: warm untimed requests
// each, then back to back from k = 0 for the given seconds, all clients
// starting together. onStart, when set, runs between the warm-up and the
// timed phase, and onEnd once every client has finished, before the
// clients' latencies and failures are merged: the merge allocates, and a
// memory meter stopped in onEnd must not see it.
func drive(clients []clientFn, warm int, seconds float64, onStart, onEnd func()) phase {
	var ready, done sync.WaitGroup
	start := make(chan time.Time)
	results := make([]phase, len(clients))
	room := int(seconds*maxClientRate) + 1024
	for c := range results {
		var unmapLat, unmapDone func()
		results[c].lat, unmapLat = offHeap[float64](room)
		results[c].done, unmapDone = offHeap[time.Duration](room)
		defer unmapLat()
		defer unmapDone()
	}
	ready.Add(len(clients))
	done.Add(len(clients))
	for c, fn := range clients {
		go func(c int, fn clientFn) {
			defer done.Done()
			for k := 0; k < warm; k++ {
				fn(k, false)
			}
			ready.Done()
			t0 := <-start
			deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
			r := &results[c]
			for k := 0; time.Now().Before(deadline); k++ {
				ms, ok := fn(k, true)
				r.done = append(r.done, time.Since(t0))
				r.ops++
				if !ok {
					r.failed++
				}
				r.lat = append(r.lat, ms)
			}
		}(c, fn)
	}
	ready.Wait()
	if onStart != nil {
		onStart()
	}
	t0 := time.Now()
	for range clients {
		start <- t0
	}
	done.Wait()
	var p phase
	p.wall = time.Since(t0)
	if onEnd != nil {
		onEnd()
	}
	// The merged samples are copied onto the heap: the mappings are
	// unmapped when drive returns.
	for _, r := range results {
		p.ops += r.ops
		p.failed += r.failed
		p.lat = append(p.lat, r.lat...)
		p.done = append(p.done, r.done...)
	}
	return p
}

// decideClients builds the two replay clients against url. With tr set,
// each request also records a client.request span.
func decideClients(url string, streams [][]replayState, tr *tracer) ([]clientFn, func()) {
	var fns []clientFn
	var conns []*bytesClient
	for c, stream := range streams {
		bc := &bytesClient{c: newClient()}
		conns = append(conns, bc)
		base := int64(idBase + c*100_000_000)
		fns = append(fns, func(k int, timed bool) (float64, bool) {
			rs := &stream[k%len(stream)]
			id := base + int64(k)
			if !timed {
				id = base + 90_000_000 + int64(k) // warm-up ids never collide with timed ones
			}
			bc.body = append(bc.body[:0], rs.body...)
			strconv.AppendInt(bc.body[rs.idOff:rs.idOff], id, 10)
			t0 := time.Now()
			status, err := post(bc.c, url+"/v1/decide", bc.body, id, &bc.buf)
			t1 := time.Now()
			if tr != nil && timed {
				tr.add("client.request", id, t0, t1)
			}
			ok := err == nil && status == 200 && parsePick(bc.buf.Bytes()) == rs.want
			return float64(t1.Sub(t0)) / 1e6, ok
		})
	}
	return fns, func() {
		for _, bc := range conns {
			bc.c.CloseIdleConnections()
		}
	}
}

type bytesClient struct {
	c    *http.Client
	body []byte
	buf  bytes.Buffer
}

// parsePick reads the pick out of a single-state /v1/decide answer
// ({"pick":N,...}); -1 when the answer is not one.
func parsePick(resp []byte) int {
	const prefix = `{"pick":`
	if !bytes.HasPrefix(resp, []byte(prefix)) {
		return -1
	}
	n, i := 0, len(prefix)
	for ; i < len(resp) && resp[i] >= '0' && resp[i] <= '9'; i++ {
		n = n*10 + int(resp[i]-'0')
	}
	if i == len(prefix) {
		return -1
	}
	return n
}

func runDecide(cfg runConfig) (*report, error) {
	rep := newReport()
	build := func(tr *tracer, st *engineStats) func() (*daemon, error) {
		return func() (*daemon, error) {
			eng, err := kernelEngine(kernelSeed)
			if err != nil {
				return nil, err
			}
			dc := daemonDefaults()
			dc.Engine = eng
			if tr == nil {
				return startDaemon(dc, nil)
			}
			dc.Engine = &tracedEngine{inner: eng, tr: tr, st: st, reqOf: func(s *serve.QueueState) int64 {
				return int64(s.Jobs[0].ID)
			}}
			return startDaemon(dc, tr.middleware)
		}
	}
	d, setup, err := setupTimes(build(nil, nil), (*daemon).stop)
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	streams, inputs, err := decideInputs(cfg.seed, cfg.seconds)
	if err != nil {
		d.stop()
		return nil, err
	}

	var alloc allocMeter
	var mem *memPeak
	fns, closeConns := decideClients(d.url, streams, nil)
	plain := drive(fns, 50, cfg.seconds,
		func() { mem, alloc = startMemPeak(inputs), startAlloc() },
		func() { rep.e2e["mem_peak_mb"] = mem.finish() })
	closeConns()
	d.stop()
	alloc.perOp(plain.ops, rep)
	servingMetrics(rep, plain, "decide")

	if cfg.trace {
		var bodies [][]byte
		for _, s := range streams {
			for i := 0; i < len(s) && i < 64; i++ {
				bodies = append(bodies, s[i].body)
			}
		}
		if err := references(rep, cfg.dir, bodies); err != nil {
			return nil, err
		}
		tr, st := newTracer(), newEngineStats()
		td, err := build(tr, st)()
		if err != nil {
			return nil, err
		}
		fns, closeConns := decideClients(td.url, streams, tr)
		traced := drive(fns, 50, cfg.seconds, func() { tr.reset(); st.reset() }, nil)
		closeConns()
		td.stop()
		rep.attempted += traced.ops
		rep.failed += traced.failed
		overhead(rep, plain.rate(), traced.rate())
		st.engineLayer(rep, traced.ops, traced.wall)
		requestLayer(rep, tr, false)
		rep.spans = tr
	}
	return rep, nil
}

// servingMetrics records the end-to-end metrics of a serving phase.
func servingMetrics(rep *report, p phase, what string) {
	rep.attempted += p.ops
	rep.failed += p.failed
	n := len(p.lat)
	rep.e2e["ops_per_s"] = measured{p.rate(), "1/s", int(p.ops)}
	rep.e2e["p50_ms"] = measured{quantile(p.lat, 0.5), "ms", n}
	rep.info = append(rep.info,
		fmt.Sprintf("%-26s %14.6g %-6s n=%d (%s; not gated: p99 does not repeat)", "tail.p99_ms", quantile(p.lat, 0.99), "ms", n, what))
}

// requestLayer derives the per-request serving splits from the spans:
// transport (client round trip minus handler time), and either the
// pre/post engine split (one engine call per request) or the handler's
// self time outside its engine calls (place).
func requestLayer(rep *report, tr *tracer, place bool) {
	var transport, pre, post, self []float64
	for _, r := range tr.requests() {
		transport = append(transport, r.client.dur()-r.handler.dur())
		if len(r.engines) == 0 {
			continue
		}
		if place {
			busy := 0.0
			for _, e := range r.engines {
				busy += e.dur()
			}
			self = append(self, r.handler.dur()-busy)
			continue
		}
		first, last := r.engines[0], r.engines[len(r.engines)-1]
		pre = append(pre, float64(first.Start-r.handler.Start)/1e6)
		post = append(post, float64(r.handler.End-last.End)/1e6)
	}
	rep.layer["serve.transport_ms"] = measured{medianOr0(transport), "ms", len(transport)}
	rep.layer["serve.pre_engine_ms"] = measured{medianOr0(pre), "ms", len(pre)}
	rep.layer["serve.post_engine_ms"] = measured{medianOr0(post), "ms", len(post)}
	rep.layer["place.self_ms"] = measured{medianOr0(self), "ms", len(self)}
}
