package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"runtime"
	"time"

	"rlsched/internal/core"
	"rlsched/internal/exp"
	"rlsched/internal/job"
	"rlsched/internal/metrics"
	"rlsched/internal/nn"
	"rlsched/internal/rl"
	"rlsched/internal/sim"
	"rlsched/internal/trace"
)

// train-standard: core.Agent.TrainEpoch at the exp.Standard() shape
// (Lublin-1, kernel policy, bounded-slowdown goal) with one rollout worker
// per CPU. The only workload that runs rl, autograd and optim. An op is
// one training job (a trajectory step); p50_ms is the median epoch time.
//
// The trace is the exp.Standard() one (its own fixed seed), as every
// standard-scale training run uses; the run's seed drives the agent:
// initial weights, sampled windows and trajectory RNGs. A per-seed
// synthetic trace would change the workload's load level, and with it
// the epoch time, from seed to seed.

func trainConfig(seed int64) core.Config {
	o := exp.Standard()
	return core.Config{
		Trace:        trace.Preset("Lublin-1", o.TraceJobs, o.Seed),
		Goal:         metrics.BoundedSlowdown,
		MaxObserve:   o.MaxObserve,
		SeqLen:       o.SeqLen,
		TrajPerEpoch: o.TrajPerEpoch,
		Seed:         seed,
		PPO:          rl.PPOConfig{TrainPiIters: o.PiIters, TrainVIters: o.VIters},
		Workers:      runtime.GOMAXPROCS(0),
	}
}

// replica is core.Agent's training loop rebuilt from the public rl API,
// configured exactly as core.New configures it (no trajectory filter, no
// reward weights, the default kernel architecture), with spans around
// Collect and Update and a timing wrapper on the rollout inference path.
// Its EpochStats must equal the agent's for the same seed.
type replica struct {
	cfg       core.Config
	rng       *rand.Rand
	ppo       *rl.PPO
	buf       *rl.Buffer
	collector *rl.Collector
	epoch     int
	tr        *tracer
	inf       *tracedInferer
	collect   []float64 // s per epoch
	update    []float64
}

func newReplica(cfg core.Config, tr *tracer) (*replica, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pol, err := nn.NewPolicy(rng, "kernel", cfg.MaxObserve, sim.JobFeatures)
	if err != nil {
		return nil, err
	}
	val := nn.NewValueNet(rng, cfg.MaxObserve, sim.JobFeatures, nil)
	ppoCfg := cfg.PPO.Defaults()
	r := &replica{cfg: cfg, rng: rng, ppo: rl.NewPPO(pol, val, ppoCfg), buf: rl.NewBuffer(ppoCfg.Gamma, ppoCfg.Lambda), tr: tr}
	r.inf = &tracedInferer{inner: r.ppo.Inferer(), maxObs: cfg.MaxObserve, st: newEngineStats()}
	r.collector = rl.NewCollector(rl.CollectorConfig{
		Policy:  r.inf,
		Value:   val,
		MaxObs:  cfg.MaxObserve,
		Feat:    sim.JobFeatures,
		Sim:     sim.Config{Processors: cfg.Trace.Processors, MaxObserve: cfg.MaxObserve},
		Goal:    cfg.Goal,
		Workers: cfg.Workers,
	})
	return r, nil
}

func (r *replica) trainEpoch() (core.EpochStats, error) {
	r.epoch++
	r.buf.Reset()
	stats := core.EpochStats{Epoch: r.epoch}
	wins := make([][]*job.Job, r.cfg.TrajPerEpoch)
	seeds := make([]int64, len(wins))
	for i := range wins {
		wins[i] = r.cfg.Trace.SampleWindow(r.rng, r.cfg.SeqLen)
		seeds[i] = r.cfg.Seed + int64(r.epoch)*1_000_003 + int64(i)*7919
	}
	t0 := time.Now()
	rollouts := r.collector.Collect(wins, seeds)
	t1 := time.Now()
	r.tr.add("rl.collect", int64(r.epoch), t0, t1)
	r.collect = append(r.collect, t1.Sub(t0).Seconds())
	var metricSum, rewardSum float64
	for _, ro := range rollouts {
		if err := r.buf.StoreRollout(ro); err != nil {
			return stats, err
		}
		rewardSum += ro.FinalReward
		metricSum += ro.Metric
	}
	batch, err := r.buf.Get()
	if err != nil {
		return stats, err
	}
	t2 := time.Now()
	stats.Update = r.ppo.Update(batch)
	t3 := time.Now()
	r.tr.add("rl.update", int64(r.epoch), t2, t3)
	r.update = append(r.update, t3.Sub(t2).Seconds())
	stats.MeanMetric = metricSum / float64(r.cfg.TrajPerEpoch)
	stats.MeanReward = rewardSum / float64(r.cfg.TrajPerEpoch)
	return stats, nil
}

// tracedInferer times every rollout forward pass, counts the real (row
// feature 6 set) versus padded observation rows it receives, and keys
// each observation for input.repeat_state_share.
type tracedInferer struct {
	inner  nn.Inferer
	maxObs int
	st     *engineStats
}

func (t *tracedInferer) InferLogits(obs []float64, batch int, out []float64) {
	t0 := time.Now()
	t.inner.InferLogits(obs, batch, out)
	d := time.Since(t0)
	rowLen := t.maxObs * sim.JobFeatures
	vis := 0
	keys := make([]uint64, batch)
	var h maphash.Hash
	h.SetSeed(t.st.hashSeed)
	var b [8]byte
	for i := range keys {
		h.Reset()
		for r, x := range obs[i*rowLen : (i+1)*rowLen] {
			if r%sim.JobFeatures == sim.JobFeatures-1 && x == 1 {
				vis++
			}
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		keys[i] = h.Sum64()
	}
	t.st.add(d, vis, batch*t.maxObs, keys)
}

func runTrain(cfg runConfig) (*report, error) {
	rep := newReport()
	tc := trainConfig(cfg.seed)
	agent, setup, err := setupTimes(func() (*core.Agent, error) { return core.New(tc) }, func(*core.Agent) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup

	jobsPerEpoch := int64(tc.TrajPerEpoch * tc.SeqLen)
	mem, alloc := startMemPeak(0), startAlloc()
	var plain []core.EpochStats
	var epochMS []float64
	t0 := time.Now()
	deadline := t0.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(plain) == 0 || time.Now().Before(deadline) {
		e0 := time.Now()
		s, err := agent.TrainEpoch()
		rep.attempted += jobsPerEpoch
		if err != nil {
			rep.failed += jobsPerEpoch
			rep.fail("train: epoch %d: %v", len(plain)+1, err)
			break
		}
		epochMS = append(epochMS, float64(time.Since(e0))/1e6)
		plain = append(plain, s)
		rep.info = append(rep.info, fmt.Sprintf("epoch %d: %.0f ms, %d policy iterations (early stop %t)",
			s.Epoch, epochMS[len(epochMS)-1], s.Update.PiIters, s.Update.EarlyStop))
	}
	wall := time.Since(t0)
	rep.e2e["mem_peak_mb"] = mem.finish()
	alloc.perOp(int64(len(plain))*jobsPerEpoch, rep)
	plainRate := float64(jobsPerEpoch) / median(epochMS) * 1e3
	rep.e2e["ops_per_s"] = measured{plainRate, "1/s", len(plain)}
	rep.e2e["p50_ms"] = measured{median(epochMS), "ms", len(epochMS)}

	if cfg.trace {
		if err := references(rep, cfg.dir, [][]byte{refBody}); err != nil {
			return nil, err
		}
		tr := newTracer()
		rp, err := newReplica(trainConfig(cfg.seed), tr)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		for i, want := range plain {
			got, err := rp.trainEpoch()
			rep.attempted += jobsPerEpoch
			if err != nil || got != want {
				rep.failed += jobsPerEpoch
				rep.fail("train: traced replica epoch %d: %+v (err %v), agent %+v", i+1, got, err, want)
			}
		}
		twall := time.Since(t1)
		// Both phases train the same epochs, so their wall times compare.
		overhead(rep, 1/wall.Seconds(), 1/twall.Seconds())
		rep.layer["rl.collect_s"] = measured{median(rp.collect), "s", len(rp.collect)}
		rep.layer["rl.update_s"] = measured{median(rp.update), "s", len(rp.update)}
		rp.inf.st.engineLayer(rep, int64(len(plain))*jobsPerEpoch, twall)
		rep.spans = tr
	}
	return rep, nil
}

// refBody is the request body of the reference HTTP probe on workloads
// that serve no requests.
var refBody = []byte(fmt.Sprintf(`{"now":0,"free_procs":96,"total_procs":128,"jobs":[[-30,3600,4,1,%d]]}`, idBase))
