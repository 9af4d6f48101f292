package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"rlsched/internal/serve"
	"rlsched/internal/trace"
)

// place-durable: a fleet-mode daemon with 8 kernel-engine shards, the
// default engine router, fairness weight 1 and a checkpoint dir with the
// default 30s interval. Each request carries one arriving job and 8
// cluster states; about a quarter of the clusters post completed records,
// every client tags its batches with its own client id and a monotonic
// batch_seq, and about 2% of requests are verbatim retries. This is the
// write path: decode, 8 engine calls, fairness fold, WAL append+fsync,
// decision ring.

var placeProcs = []int{256, 256, 128, 128, 128, 64, 64, 64}

func placeShardName(i int) string { return fmt.Sprintf("c%d-%d", i, placeProcs[i]) }

const (
	placeMaxQueue   = 32   // jobs per posted cluster state: 0..32
	placeDoneShare  = 0.25 // share of cluster states posting completions
	placeRetryShare = 0.02 // share of requests that are verbatim retries
)

// placeGen generates one client's request stream. The same seed and
// client give the same stream.
type placeGen struct {
	rng    *rand.Rand
	tr     *trace.Trace
	client string
	idBase int64
	k      int64 // requests generated (ids and batch_seq)
	now    float64
	body   []byte
	last   placeReq
}

// placeReq is one generated request and what its answer must satisfy.
type placeReq struct {
	body  []byte
	id    int64
	procs int
	retry bool
}

func newPlaceGen(tr *trace.Trace, seed int64, client int) *placeGen {
	return &placeGen{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client))),
		tr:     tr,
		client: fmt.Sprintf("bench-%d", client),
		idBase: int64(idBase + client*100_000_000),
	}
}

func appendJobRow(b []byte, submit, reqTime float64, procs, user int, id int64) []byte {
	b = append(b, '[')
	b = strconv.AppendFloat(b, submit, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, reqTime, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(procs), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(user), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, id, 10)
	return append(b, ']')
}

// next returns the next request. The returned body is valid until the
// following call.
func (g *placeGen) next() placeReq {
	if g.k > 0 && g.rng.Float64() < placeRetryShare {
		r := g.last
		r.retry = true
		return r
	}
	rng, tr := g.rng, g.tr
	g.now += math.Round(rng.ExpFloat64() * 60)
	arr := tr.Jobs[rng.Intn(len(tr.Jobs))]
	id := g.idBase + g.k
	b := append(g.body[:0], `{"client":"`...)
	b = append(b, g.client...)
	b = append(b, `","batch_seq":`...)
	b = strconv.AppendInt(b, g.k, 10)
	b = append(b, `,"job":`...)
	procs := arr.RequestedProcs
	b = appendJobRow(b, g.now, math.Max(1, math.Round(arr.RequestedTime)), procs, arr.UserID, id)
	b = append(b, `,"clusters":[`...)
	var subs []float64
	for i, total := range placeProcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"name":"`...)
		b = append(b, placeShardName(i)...)
		b = append(b, `","now":`...)
		b = strconv.AppendFloat(b, g.now, 'g', -1, 64)
		b = append(b, `,"free_procs":`...)
		b = strconv.AppendInt(b, int64(rng.Intn(total+1)), 10)
		b = append(b, `,"total_procs":`...)
		b = strconv.AppendInt(b, int64(total), 10)
		b = append(b, `,"jobs":[`...)
		n := rng.Intn(placeMaxQueue + 1)
		subs = subs[:0]
		for q := 0; q < n; q++ {
			subs = append(subs, g.now-math.Round(rng.Float64()*7200))
		}
		sort.Float64s(subs) // FCFS order, as a cluster reports its queue
		for q, sub := range subs {
			if q > 0 {
				b = append(b, ',')
			}
			jb := tr.Jobs[rng.Intn(len(tr.Jobs))]
			b = appendJobRow(b, sub, math.Max(1, math.Round(jb.RequestedTime)),
				min(jb.RequestedProcs, total), jb.UserID, 0)
		}
		b = append(b, ']')
		if rng.Float64() < placeDoneShare {
			b = append(b, `,"completed":[`...)
			for d, nd := 0, 1+rng.Intn(3); d < nd; d++ {
				if d > 0 {
					b = append(b, ',')
				}
				jb := tr.Jobs[rng.Intn(len(tr.Jobs))]
				b = append(b, '[')
				b = strconv.AppendInt(b, int64(jb.UserID), 10)
				b = append(b, ',')
				b = strconv.AppendFloat(b, math.Round(rng.Float64()*7200), 'g', -1, 64)
				b = append(b, ',')
				b = strconv.AppendFloat(b, math.Max(1, math.Round(jb.RunTime)), 'g', -1, 64)
				b = append(b, ']')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	g.body = b
	g.k++
	g.last = placeReq{body: b, id: id, procs: procs}
	return g.last
}

// placeAnswer is the part of a /place answer the checks read.
type placeAnswer struct {
	Cluster string `json:"cluster"`
	Shard   int    `json:"shard"`
	Deduped bool   `json:"deduped"`
}

// checkPlace returns the shard an answer names and whether the answer is
// right: it names a posted cluster (every request posts all shards and
// none is drained) that can take the job, and carries "deduped":true
// exactly when the request was a retry.
func checkPlace(r placeReq, status int, resp []byte) (int, bool) {
	if status != http.StatusOK {
		return -1, false
	}
	var a placeAnswer
	if err := json.Unmarshal(resp, &a); err != nil {
		return -1, false
	}
	if a.Shard < 0 || a.Shard >= len(placeProcs) || a.Cluster != placeShardName(a.Shard) {
		return -1, false
	}
	return a.Shard, placeProcs[a.Shard] >= r.procs && a.Deduped == r.retry
}

func placeConfig(dir string, wrap func(serve.Engine) serve.Engine) (serve.Config, error) {
	dc := daemonDefaults()
	dc.FairWeight = 1
	dc.CheckpointDir = dir
	for i, procs := range placeProcs {
		eng, err := kernelEngine(kernelSeed + int64(i))
		if err != nil {
			return dc, err
		}
		var e serve.Engine = eng
		if wrap != nil {
			e = wrap(eng)
		}
		dc.Shards = append(dc.Shards, serve.ShardConfig{Name: placeShardName(i), Procs: procs, Engine: e})
	}
	return dc, nil
}

// placeClient is the workload's one closed-loop /place client. Two
// clients saturate both CPUs of the 2-vCPU reference machine with request
// decoding and engine calls, and their throughput then swung by ±20% from
// run to run with the VM's CPU speed; one client left headroom and
// repeated within ±4%. Contention on the WAL lock between concurrent
// clients belongs to a disk-backed group-commit workload of its own.
//
// With one client the daemon sees the same requests in the same order in
// every phase, so its answers are deterministic. The client appends the
// shard of every answer to picks (-1 for a wrong one); with want set,
// answer i must also name want[i], so the traced phase answers exactly as
// the untraced one did.
func placeClient(url string, tr *tracer, seed int64, picks *[]int, want []int) ([]clientFn, func()) {
	bc := &bytesClient{c: newClient()}
	gen := newPlaceGen(trace.Preset("Lublin-1", 4096, seed), seed, 0)
	fn := func(k int, timed bool) (float64, bool) {
		r := gen.next()
		t0 := time.Now()
		status, err := post(bc.c, url+"/place", r.body, r.id, &bc.buf)
		t1 := time.Now()
		if tr != nil && timed {
			tr.add("client.request", r.id, t0, t1)
		}
		shard, ok := checkPlace(r, status, bc.buf.Bytes())
		ok = ok && err == nil
		if i := len(*picks); i < len(want) && want[i] != shard {
			ok = false
		}
		*picks = append(*picks, shard)
		return float64(t1.Sub(t0)) / 1e6, ok
	}
	return []clientFn{fn}, bc.c.CloseIdleConnections
}

// fairnessLines is the daemon's rlserv_fairness_score view.
func fairnessLines(d *serve.Server) string {
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var out []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "rlserv_fairness_score") {
			out = append(out, sc.Text())
		}
	}
	return strings.Join(out, "\n")
}

// placeOut is one place phase, the shard of every answer (warm-up
// included), and the daemon's WAL counters over the phase.
type placeOut struct {
	phase
	picks               []int
	walRecords, deduped uint64
	bytesPerRecord      float64
}

// placePhase runs one measured phase on a fresh daemon over dir, then
// checks durability: the fairness view after close and reopen on the same
// checkpoint dir must equal the view before close. onStart runs after the
// warm-up and onEnd when the timed requests end, before the reopen; want,
// when set, are the answers an earlier phase gave.
func placePhase(rep *report, cfg runConfig, dir string, tr *tracer, st *engineStats, want []int, onStart, onEnd func()) (placeOut, error) {
	var out placeOut
	var wrap func(serve.Engine) serve.Engine
	var mw func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(e serve.Engine) serve.Engine {
			return &tracedEngine{inner: e, tr: tr, st: st, reqOf: func(s *serve.QueueState) int64 {
				return int64(s.Jobs[len(s.Jobs)-1].ID) // the arriving job
			}}
		}
		mw = tr.middleware
	}
	dc, err := placeConfig(dir, wrap)
	if err != nil {
		return out, err
	}
	d, err := startDaemon(dc, mw)
	if err != nil {
		return out, err
	}
	m := d.srv.Metrics()
	var recs0, dedup0 uint64
	fns, closeConns := placeClient(d.url, tr, cfg.seed, &out.picks, want)
	out.phase = drive(fns, 20, cfg.seconds, func() {
		recs0, dedup0 = m.WALRecordsTotal.Load(), m.PlaceDedupTotal.Load()
		if onStart != nil {
			onStart()
		}
	}, onEnd)
	closeConns()
	before := fairnessLines(d.srv)
	recs := m.WALRecordsTotal.Load()
	out.walRecords, out.deduped = recs-recs0, m.PlaceDedupTotal.Load()-dedup0
	out.bytesPerRecord = ratio(float64(dirBytes(dir, "wal-")), float64(recs))
	d.stop()
	re, err := serve.NewServer(dc)
	if err != nil {
		return out, fmt.Errorf("reopen: %w", err)
	}
	after := fairnessLines(re)
	re.Close()
	checkReopen(rep, before, after)
	return out, nil
}

// checkReopen fails the run unless the fairness view a reopened daemon
// restores equals the one the closed daemon served.
func checkReopen(rep *report, before, after string) {
	if before == "" || before != after {
		rep.fail("place: fairness view after reopen differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// dirBytes sums the sizes of the files in dir whose names start with prefix.
func dirBytes(dir, prefix string) int64 {
	ents, _ := os.ReadDir(dir)
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

func runPlace(cfg runConfig) (*report, error) {
	rep := newReport()
	nSetup := 0
	build := func() (*daemon, error) {
		nSetup++
		dc, err := placeConfig(filepath.Join(cfg.dir, fmt.Sprintf("setup-%d", nSetup)), nil)
		if err != nil {
			return nil, err
		}
		return startDaemon(dc, nil)
	}
	d, setup, err := setupTimes(build, (*daemon).stop)
	if err != nil {
		return nil, err
	}
	d.stop()
	rep.e2e["setup_s"] = setup

	var alloc allocMeter
	var mem *memPeak
	plain, err := placePhase(rep, cfg, filepath.Join(cfg.dir, "plain"), nil, nil, nil,
		func() { mem, alloc = startMemPeak(0), startAlloc() },
		func() { rep.e2e["mem_peak_mb"] = mem.finish() })
	if err != nil {
		return nil, err
	}
	alloc.perOp(plain.ops, rep)
	servingMetrics(rep, plain.phase, "place")

	if cfg.trace {
		gen := newPlaceGen(trace.Preset("Lublin-1", 4096, cfg.seed), cfg.seed, 9)
		var bodies [][]byte
		for i := 0; i < 64; i++ {
			bodies = append(bodies, bytes.Clone(gen.next().body))
		}
		if err := references(rep, cfg.dir, bodies); err != nil {
			return nil, err
		}
		tr, st := newTracer(), newEngineStats()
		traced, err := placePhase(rep, cfg, filepath.Join(cfg.dir, "traced"), tr, st, plain.picks,
			func() { tr.reset(); st.reset() }, nil)
		if err != nil {
			return nil, err
		}
		rep.attempted += traced.ops
		rep.failed += traced.failed
		overhead(rep, plain.rate(), traced.rate())
		st.engineLayer(rep, traced.ops, traced.wall)
		requestLayer(rep, tr, true)
		rep.layer["wal.records"] = measured{float64(traced.walRecords), "count", int(traced.ops)}
		rep.layer["wal.bytes_per_record"] = measured{traced.bytesPerRecord, "B", int(traced.walRecords)}
		rep.layer["place.deduped"] = measured{float64(traced.deduped), "count", int(traced.ops)}
		rep.spans = tr
	}
	return rep, nil
}
