package main

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"rlsched/internal/core"
	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/rl"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

func TestInputsDeterministic(t *testing.T) {
	a, _, err := decideInputs(7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := decideInputs(7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := decideInputs(8, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	flat := func(ss [][]replayState) []byte {
		var out []byte
		for _, s := range ss {
			for _, r := range s {
				out = append(out, r.body...)
				out = append(out, byte(r.want), byte(r.idOff))
			}
		}
		return out
	}
	if !bytes.Equal(flat(a), flat(b)) {
		t.Error("decide inputs differ for the same seed")
	}
	if bytes.Equal(flat(a), flat(c)) {
		t.Error("decide inputs equal for different seeds")
	}

	placeBodies := func(seed int64) []byte {
		g := newPlaceGen(trace.Preset("Lublin-1", 4096, seed), seed, 0)
		var out []byte
		for i := 0; i < 300; i++ {
			r := g.next()
			out = append(out, r.body...)
			if r.retry {
				out = append(out, 'R')
			}
		}
		return out
	}
	if !bytes.Equal(placeBodies(7), placeBodies(7)) {
		t.Error("place inputs differ for the same seed")
	}
	if bytes.Equal(placeBodies(7), placeBodies(8)) {
		t.Error("place inputs equal for different seeds")
	}

	jobsEqual := func(x, y []*job.Job) bool {
		return slices.EqualFunc(x, y, func(p, q *job.Job) bool {
			return p.ID == q.ID && p.SubmitTime == q.SubmitTime && p.RunTime == q.RunTime &&
				p.RequestedTime == q.RequestedTime && p.RequestedProcs == q.RequestedProcs && p.UserID == q.UserID
		})
	}
	if !jobsEqual(fleetStream(7), fleetStream(7)) {
		t.Error("fleet streams differ for the same seed")
	}
	if !jobsEqual(trainConfig(7).Trace.Jobs, trainConfig(7).Trace.Jobs) {
		t.Error("training traces differ for the same seed")
	}
}

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0, 1},
		{[]float64{1, 2, 3, 4}, 1, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{10, 20, 30, 40, 50}, 0.5, 30},
		{[]float64{10, 20, 30, 40, 50}, 0.99, 49.6},
		{[]float64{7}, 0.99, 7},
	} {
		if got := quantile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.xs, tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("quantile must not reorder its input")
	}
}

// TestDecideCheckFires serves a policy with other weights than the one
// the expected picks come from: the clients must count wrong answers.
func TestDecideCheckFires(t *testing.T) {
	streams, _, err := decideInputs(3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kernelEngine(kernelSeed + 1)
	if err != nil {
		t.Fatal(err)
	}
	dc := daemonDefaults()
	dc.Engine = eng
	d, err := startDaemon(dc, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	fns, closeConns := decideClients(d.url, streams, nil)
	defer closeConns()
	p := drive(fns, 0, 0.3, nil, nil)
	if p.ops == 0 || p.failed == 0 {
		t.Fatalf("wrong policy answered %d requests with %d failures; want failures", p.ops, p.failed)
	}
	if parsePick([]byte(`{"picks":[1],"policy":"kernel"}`)) != -1 || parsePick([]byte(`{"pick":12,"policy":"x"}`)) != 12 {
		t.Error("parsePick misreads answers")
	}
}

func TestPlaceCheckFires(t *testing.T) {
	r := placeReq{procs: 200}
	ok := `{"cluster":"c0-256","shard":0,"router":"engine-scored"}`
	for _, tc := range []struct {
		name   string
		r      placeReq
		status int
		resp   string
		want   bool
	}{
		{"valid", r, 200, ok, true},
		{"http error", r, 500, ok, false},
		{"not json", r, 200, `{"cluster":`, false},
		{"unposted cluster", r, 200, `{"cluster":"c9-1","shard":9}`, false},
		{"name and shard disagree", r, 200, `{"cluster":"c1-256","shard":0}`, false},
		{"cluster too small", r, 200, `{"cluster":"c5-64","shard":5}`, false},
		{"retry not deduped", placeReq{procs: 1, retry: true}, 200, ok, false},
		{"fresh request deduped", r, 200, `{"cluster":"c0-256","shard":0,"deduped":true}`, false},
		{"retry deduped", placeReq{procs: 1, retry: true}, 200, `{"cluster":"c0-256","shard":0,"deduped":true}`, true},
	} {
		if _, got := checkPlace(tc.r, tc.status, []byte(tc.resp)); got != tc.want {
			t.Errorf("%s: checkPlace = %t, want %t", tc.name, got, tc.want)
		}
	}
}

// TestPlaceAnswersRepeat: a second phase over the same requests answers
// exactly as the first, and a phase checked against other answers fails.
func TestPlaceAnswersRepeat(t *testing.T) {
	cfg := runConfig{seed: 4, seconds: 0.3, dir: t.TempDir()}
	rep := newReport()
	first, err := placePhase(rep, cfg, t.TempDir(), nil, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := placePhase(rep, cfg, t.TempDir(), newTracer(), newEngineStats(), first.picks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.failed != 0 || again.failed != 0 || len(rep.checks) != 0 {
		t.Fatalf("repeated phase failed %d/%d answers, checks %v", again.failed, again.ops, rep.checks)
	}
	shifted := append([]int{-2}, first.picks...)
	bad, err := placePhase(rep, cfg, t.TempDir(), nil, nil, shifted, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad.failed == 0 {
		t.Fatal("answers differing from the earlier phase must fail")
	}
}

// TestPlaceReopenCheckFires tampers with the fairness state between close
// and reopen: the durability check must fail the run.
func TestPlaceReopenCheckFires(t *testing.T) {
	rep := newReport()
	checkReopen(rep, "rlserv_fairness_score{stat=\"users\"} 2", "rlserv_fairness_score{stat=\"users\"} 3")
	if len(rep.checks) != 1 {
		t.Fatal("differing fairness views must fail the check")
	}
	rep = newReport()
	checkReopen(rep, "", "")
	if len(rep.checks) != 1 {
		t.Fatal("an empty fairness view must fail the check")
	}
	rep = newReport()
	checkReopen(rep, "a", "a")
	if len(rep.checks) != 0 {
		t.Fatal("equal views must pass")
	}
}

// smallTrainConfig is a seconds-scale training shape for tests.
func smallTrainConfig(seed int64) core.Config {
	return core.Config{
		Trace:        trace.Preset("Lublin-1", 800, seed),
		Goal:         metrics.BoundedSlowdown,
		MaxObserve:   16,
		SeqLen:       32,
		TrajPerEpoch: 3,
		Seed:         seed,
		PPO:          rl.PPOConfig{TrainPiIters: 5, TrainVIters: 5},
		Workers:      2,
	}
}

// TestReplicaMatchesAgent pins the traced training replica to
// core.Agent, and shows the equality check fires when they differ.
func TestReplicaMatchesAgent(t *testing.T) {
	agent, err := core.New(smallTrainConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	same, err := newReplica(smallTrainConfig(1), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	other, err := newReplica(smallTrainConfig(2), newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 3; e++ {
		want, err := agent.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		got, err := same.trainEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("epoch %d: replica %+v, agent %+v", e, got, want)
		}
		if bad, _ := other.trainEpoch(); bad == want {
			t.Fatalf("epoch %d: replica of another seed matched the agent", e)
		}
	}
	if len(same.collect) != 3 || len(same.update) != 3 || same.inf.st.calls == 0 {
		t.Error("replica recorded no layer timings")
	}
}

func TestFleetCheckFires(t *testing.T) {
	stream := fleetStream(5)
	f, err := fleetSetup(stream, plainSched, plainRoute)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(cloneStream(stream))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(res, len(stream), nil); err != nil {
		t.Fatal(err)
	}
	ref := slices.Clone(res.Assignments)
	moved := slices.Clone(ref)
	moved[10] = (moved[10] + 1) % fleetMembers
	if checkFleet(res, len(stream), moved) == nil {
		t.Error("assignments differing from the reference must fail")
	}
	if checkFleet(res, len(stream)+1, nil) == nil {
		t.Error("a missing assignment must fail")
	}
	res.Clusters[res.Assignments[0]].Result.Jobs[0].EndTime = -1
	if checkFleet(res, len(stream), nil) == nil {
		t.Error("an uncompleted arrival must fail")
	}
}

// TestTracedRouterKeepsPaths: the wrapper keeps the heap path's
// ClockFree capability and every router capability, and a wrapped fleet
// assigns exactly as the bare one.
func TestTracedRouterKeepsPaths(t *testing.T) {
	bin := &tracedRouter{p: fleet.BinpackPipeline()}
	if !bin.ClockFree() {
		t.Error("wrapped clock-free pipeline must stay clock-free")
	}
	var r fleet.Router = bin
	if _, ok := r.(fleet.ScoredRouter); !ok {
		t.Error("wrapper must stay a ScoredRouter")
	}
	if _, ok := r.(fleet.ExplainingRouter); !ok {
		t.Error("wrapper must stay an ExplainingRouter")
	}
	if _, ok := r.(fleet.ClockFree); !ok {
		t.Error("wrapper must declare ClockFree")
	}
	if (&tracedRouter{p: fleet.ChurnAwarePipeline()}).ClockFree() {
		t.Error("wrapper must not claim clock-freedom the pipeline lacks")
	}
	if got := len((&tracedRouter{p: fleet.FairnessPipeline(fleet.FairnessConfig{})}).StateScorers()); got != 1 {
		t.Errorf("wrapper forwards %d state scorers, want 1", got)
	}

	members := func(s func() sim.Scheduler) []fleet.MemberConfig {
		var ms []fleet.MemberConfig
		for i := 0; i < 24; i++ {
			ms = append(ms, fleet.MemberConfig{
				Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Scheduler: s(),
				Sim: sim.Config{Processors: []int{256, 128, 64}[i%3], Backfill: true, MaxObserve: 32},
			})
		}
		return ms
	}
	stream := fleetStream(9)[:600]
	run := func(r fleet.Router, s func() sim.Scheduler) []int {
		f, err := fleet.New(members(s), r)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(cloneStream(stream))
		if err != nil {
			t.Fatal(err)
		}
		return res.Assignments
	}
	sjf := func() sim.Scheduler { return sched.SJF() }
	traced := func() sim.Scheduler { return &tracedSched{inner: sched.SJF()} }
	wrapped := &tracedRouter{p: fleet.BinpackPipeline(), tr: newTracer()}
	if !slices.Equal(run(fleet.BinpackPipeline(), sjf), run(wrapped, traced)) {
		t.Error("wrapped binpack fleet assigns differently")
	}
	if wrapped.calls != len(stream) {
		t.Errorf("wrapper saw %d placements, want %d", wrapped.calls, len(stream))
	}
}

// TestSmoke runs every workload briefly, traced and untraced, and
// requires every check to pass and every registered metric to be set.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := wl.run(runConfig{seed: 1, seconds: 0.3, trace: traced, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, traced, err)
			}
			if rep.failed != 0 || len(rep.checks) != 0 || rep.attempted == 0 {
				t.Fatalf("%s trace=%t: %d/%d failed, checks %v", wl.name, traced, rep.failed, rep.attempted, rep.checks)
			}
			var names []string
			for _, m := range endToEnd {
				names = append(names, m.name)
			}
			set := rep.e2e
			if traced {
				names = append(names, "alloc.bytes_per_op", "ref.http_floor_ms", "ref.fsync_ms")
				for k, v := range rep.layer {
					set[k] = v
				}
				if _, ok := set["trace.overhead_share"]; !ok {
					t.Errorf("%s: no trace.overhead_share", wl.name)
				}
			}
			for _, n := range names {
				if m, ok := set[n]; !ok || m.value == 0 {
					t.Errorf("%s trace=%t: metric %s missing or zero", wl.name, traced, n)
				}
			}
		}
	}
}
