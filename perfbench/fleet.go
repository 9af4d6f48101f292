package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/obs"
	"rlsched/internal/sched"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
	"rlsched/internal/trace"
)

// fleet-churn-1k: fleet.Run over the scale suite's 1k-member fleet
// ([256, 128, 64] cycling, SJF + EASY backfill) with a 4,000-arrival
// Lublin-1 stream, the churn-aware pipeline, a join / announced-failure /
// drain plan, health sampling on, and one stepping worker per CPU. It
// exercises heap stepping and the pipeline and never reaches nn: an
// engine or kernel change predicts no change here. An op is one routed
// arrival; p50_ms is the median time of one Run.

const (
	fleetMembers  = 1000
	fleetArrivals = 4000
)

// fleetCompress shrinks the inter-arrival times of the single-cluster
// trace 4×, as the repository's fleet churn benchmark does. The fleet
// stays lightly loaded: forced re-placements happen only when the failed
// or drained member holds work at that instant (fleet.forced_moves).
const fleetCompress = 4

// fleetStream samples the arrival stream: procs clamped so every member
// size is feasible, arrivals compressed by fleetCompress.
func fleetStream(seed int64) []*job.Job {
	tr := trace.Preset("Lublin-1", fleetArrivals+64, seed)
	stream := tr.SampleWindow(rand.New(rand.NewSource(seed)), fleetArrivals)
	start := stream[0].SubmitTime
	for _, j := range stream {
		j.SubmitTime = start + (j.SubmitTime-start)/fleetCompress
		j.RequestedProcs = min(j.RequestedProcs, 64)
	}
	return stream
}

func cloneStream(stream []*job.Job) []*job.Job {
	out := make([]*job.Job, len(stream))
	for i, j := range stream {
		out[i] = j.Clone()
	}
	return out
}

// fleetSetup builds the fleet. newSched gives member i (i = fleetMembers
// for the joining member) its scheduler; route wraps the pipeline.
func fleetSetup(stream []*job.Job, newSched func(i int) sim.Scheduler, route func(*fleet.Pipeline) fleet.Router) (*fleet.Fleet, error) {
	sizes := []int{256, 128, 64}
	members := make([]fleet.MemberConfig, fleetMembers)
	for i := range members {
		members[i] = fleet.MemberConfig{
			Name:      fmt.Sprintf("c%05d", i),
			Sim:       sim.Config{Processors: sizes[i%3], Backfill: true, MaxObserve: 32},
			Scheduler: newSched(i),
		}
	}
	f, err := fleet.New(members, route(fleet.ChurnAwarePipeline()))
	if err != nil {
		return nil, err
	}
	span := stream[len(stream)-1].SubmitTime - stream[0].SubmitTime
	at := func(frac float64) float64 { return stream[0].SubmitTime + frac*span }
	plan := fleet.ChurnPlan{
		{Kind: fleet.ChurnJoin, Time: at(0.10), Member: fleet.MemberConfig{
			Name:      "late-128",
			Sim:       sim.Config{Processors: 128, Backfill: true, MaxObserve: 32},
			Scheduler: newSched(fleetMembers),
		}},
		{Kind: fleet.ChurnFail, Time: at(0.70), Name: "c00001", Notice: 0.4 * span},
		{Kind: fleet.ChurnDrain, Time: at(0.90), Name: "c00002", Notice: 0.15 * span},
	}
	if err := f.EnableChurn(plan); err != nil {
		return nil, err
	}
	if err := f.EnableSampling(fleet.SamplingConfig{Interval: span / 200, Set: telemetry.NewSet()}); err != nil {
		return nil, err
	}
	f.SetWorkers(runtime.GOMAXPROCS(0))
	return f, nil
}

func plainSched(int) sim.Scheduler { return sched.SJF() }

func plainRoute(p *fleet.Pipeline) fleet.Router { return p }

// checkFleet verifies one run: every arrival assigned to a valid member
// and completed, and the assignments equal the reference run's.
func checkFleet(res *fleet.Result, n int, ref []int) error {
	if len(res.Assignments) != n {
		return fmt.Errorf("%d assignments for %d arrivals", len(res.Assignments), n)
	}
	for i, k := range res.Assignments {
		if k < 0 || k >= len(res.Clusters) {
			return fmt.Errorf("arrival %d assigned to member %d of %d", i, k, len(res.Clusters))
		}
	}
	done := 0
	for _, c := range res.Clusters {
		for _, j := range c.Result.Jobs {
			if j.StartTime >= 0 && j.EndTime >= j.StartTime {
				done++
			}
		}
	}
	if done != n {
		return fmt.Errorf("%d of %d arrivals completed", done, n)
	}
	if ref != nil && !slices.Equal(res.Assignments, ref) {
		return fmt.Errorf("assignments differ from the reference run")
	}
	return nil
}

// tracedRouter times every call into the placement pipeline and forwards
// every optional capability fleet.New and Fleet.Run type-assert on a
// router — ClockFree, StateScorers, AssignObservers, ScoredRouter,
// ExplainingRouter — so the traced fleet takes the same code paths.
// ClusterRetirer is asserted on the state scorers StateScorers returns,
// which are the pipeline's own.
type tracedRouter struct {
	p     *fleet.Pipeline
	ns    time.Duration // pipeline time in the current run
	calls int
	tr    *tracer // set only for runs whose calls are recorded as spans
	run   int64
}

func (r *tracedRouter) note(t0 time.Time) {
	t1 := time.Now()
	r.ns += t1.Sub(t0)
	r.calls++
	if r.tr != nil {
		r.tr.add("fleet.place", r.run, t0, t1)
	}
}

func (r *tracedRouter) Name() string { return r.p.Name() }

func (r *tracedRouter) Place(j *job.Job, cands []*fleet.Candidate) int {
	t0 := time.Now()
	k := r.p.Place(j, cands)
	r.note(t0)
	return k
}

func (r *tracedRouter) PlaceScored(j *job.Job, cands []*fleet.Candidate, scores []float64) int {
	t0 := time.Now()
	k := r.p.PlaceScored(j, cands, scores)
	r.note(t0)
	return k
}

func (r *tracedRouter) PlaceExplained(j *job.Job, cands []*fleet.Candidate, scores []float64, ex *obs.Explain) int {
	t0 := time.Now()
	k := r.p.PlaceExplained(j, cands, scores, ex)
	r.note(t0)
	return k
}

func (r *tracedRouter) ClockFree() bool { return r.p.ClockFree() }

func (r *tracedRouter) StateScorers() []fleet.StateScorer { return r.p.StateScorers() }

func (r *tracedRouter) AssignObservers() []fleet.AssignObserver { return r.p.AssignObservers() }

// tracedSched times one member's scheduler. Members step in parallel, but
// each member's scheduler is called by one goroutine at a time, so its
// counters need no lock.
type tracedSched struct {
	inner sim.Scheduler
	ns    time.Duration
	tr    *tracer
	run   int64
}

func (s *tracedSched) Pick(visible []*job.Job, now float64, view sim.ClusterView) int {
	t0 := time.Now()
	k := s.inner.Pick(visible, now, view)
	t1 := time.Now()
	s.ns += t1.Sub(t0)
	if s.tr != nil {
		s.tr.add("sim.pick", s.run, t0, t1)
	}
	return k
}

func runFleet(cfg runConfig) (*report, error) {
	rep := newReport()
	stream := fleetStream(cfg.seed)
	f, setup, err := setupTimes(func() (*fleet.Fleet, error) {
		return fleetSetup(stream, plainSched, plainRoute)
	}, func(*fleet.Fleet) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	// One untimed run fills lazy state and gives the reference assignments.
	res, err := f.Run(cloneStream(stream))
	if err != nil {
		return nil, err
	}
	if err := checkFleet(res, len(stream), nil); err != nil {
		return nil, err
	}
	ref := res.Assignments

	mem, alloc := startMemPeak(0), startAlloc()
	var runMS []float64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(runMS) == 0 || time.Now().Before(deadline) {
		in := cloneStream(stream)
		r0 := time.Now()
		res, err := f.Run(in)
		runMS = append(runMS, float64(time.Since(r0))/1e6)
		rep.attempted += int64(len(stream))
		if err == nil {
			err = checkFleet(res, len(stream), ref)
		}
		if err != nil {
			rep.failed += int64(len(stream))
			rep.fail("fleet: run %d: %v", len(runMS), err)
		}
	}
	rep.e2e["mem_peak_mb"] = mem.finish()
	alloc.perOp(int64(len(runMS))*int64(len(stream)), rep)
	plainRate := float64(len(stream)) / median(runMS) * 1e3
	rep.e2e["ops_per_s"] = measured{plainRate, "1/s", len(runMS)}
	rep.e2e["p50_ms"] = measured{median(runMS), "ms", len(runMS)}

	if cfg.trace {
		if err := references(rep, cfg.dir, [][]byte{refBody}); err != nil {
			return nil, err
		}
		if err := fleetTraced(rep, cfg, stream, ref, plainRate); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// fleetTraced reruns the workload with every router and member-scheduler
// call wrapped; the first run also records each call as a span.
func fleetTraced(rep *report, cfg runConfig, stream []*job.Job, ref []int, plainRate float64) error {
	tr := newTracer()
	var scheds []*tracedSched
	router := &tracedRouter{}
	f, err := fleetSetup(stream,
		func(int) sim.Scheduler {
			s := &tracedSched{inner: sched.SJF()}
			scheds = append(scheds, s)
			return s
		},
		func(p *fleet.Pipeline) fleet.Router { router.p = p; return router })
	if err != nil {
		return err
	}
	var placeS, pickS, selfS, runMS []float64
	forced := 0
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for run := int64(0); run == 0 || time.Now().Before(deadline); run++ {
		rec := (*tracer)(nil)
		if run == 0 {
			rec = tr
		}
		router.ns, router.calls, router.tr, router.run = 0, 0, rec, run
		for _, s := range scheds {
			s.ns, s.tr, s.run = 0, rec, run
		}
		in := cloneStream(stream)
		r0 := time.Now()
		res, err := f.Run(in)
		r1 := time.Now()
		tr.add("fleet.run", run, r0, r1)
		runMS = append(runMS, float64(r1.Sub(r0))/1e6)
		rep.attempted += int64(len(stream))
		if err == nil {
			err = checkFleet(res, len(stream), ref)
		}
		if err != nil {
			rep.failed += int64(len(stream))
			rep.fail("fleet: traced run %d: %v", run+1, err)
			continue
		}
		forced = res.Churn.Forced
		var pick time.Duration
		for _, s := range scheds {
			pick += s.ns
		}
		placeS = append(placeS, router.ns.Seconds())
		pickS = append(pickS, pick.Seconds())
		selfS = append(selfS, (r1.Sub(r0) - router.ns - pick).Seconds())
	}
	overhead(rep, plainRate, float64(len(stream))/median(runMS)*1e3)
	rep.layer["fleet.place_s"] = measured{medianOr0(placeS), "s", len(placeS)}
	rep.layer["sim.pick_s"] = measured{medianOr0(pickS), "s", len(pickS)}
	rep.layer["fleet.step_self_s"] = measured{medianOr0(selfS), "s", len(selfS)}
	rep.layer["fleet.forced_moves"] = measured{float64(forced), "count", 1}
	tr.link("fleet.place", "fleet.run")
	tr.link("sim.pick", "fleet.run")
	rep.spans = tr
	return nil
}
