package main_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"rlsched/internal/job"
	"rlsched/internal/nn"
	"rlsched/internal/serve"
	"rlsched/internal/sim"
	"rlsched/internal/telemetry"
	"rlsched/internal/trace"
)

// Serving hot-path benchmarks: single-request decision latency and batched
// throughput through the full HTTP surface (parser → batcher → policy
// forward pass → response), the path future PRs must not regress. The
// decisions/s metric is the headline number of the serving subsystem.

func newBenchServer(b *testing.B, policyName string, cacheSize int) *httptest.Server {
	b.Helper()
	var cfg serve.Config
	cfg.DecisionCache = cacheSize
	if policyName != "" {
		cfg.PolicyName = policyName
	} else {
		rng := rand.New(rand.NewSource(5))
		pol, err := nn.NewPolicy(rng, "kernel", sim.DefaultMaxObserve, sim.JobFeatures)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := serve.NewPolicyEngine(pol)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Engine = eng
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func benchServeDecide(b *testing.B, snapName, policyName string, statesPerReq, cacheSize int) {
	ts := newBenchServer(b, policyName, cacheSize)
	states, err := serve.SyntheticStates("Lublin-1", statesPerReq, sim.DefaultMaxObserve, 42)
	if err != nil {
		b.Fatal(err)
	}
	body := serve.EncodeStates(states)
	client := ts.Client()
	url := ts.URL + "/v1/decide"
	buf := make([]byte, 4096)
	// Whole-run latency distribution: unbounded telemetry histogram, same
	// bucket layout the load generator reports from.
	lat := telemetry.NewHistogram(telemetry.LogBounds(100e-6, 5, 6), 0, 0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		lat.Observe(0, time.Since(t0).Seconds())
	}
	// Each decision places exactly one job, so jobs/s mirrors decisions/s;
	// reporting both keeps BENCH_*.json comparable with the training-epoch
	// benchmark's throughput trajectory.
	b.StopTimer()
	rate := float64(b.N) * float64(statesPerReq) / b.Elapsed().Seconds()
	p50, p95, p99 := lat.Quantile(0, 0.50), lat.Quantile(0, 0.95), lat.Quantile(0, 0.99)
	b.ReportMetric(rate, "decisions/s")
	b.ReportMetric(rate, "jobs/s")
	b.ReportMetric(p50*1e3, "p50-ms")
	b.ReportMetric(p95*1e3, "p95-ms")
	b.ReportMetric(p99*1e3, "p99-ms")
	writeBenchSnapshot(b, snapName, map[string]float64{
		"decisions_per_s": rate,
		"p50_seconds":     p50,
		"p95_seconds":     p95,
		"p99_seconds":     p99,
	})
}

// BenchmarkServeDecide is the single-request latency of one 128-job
// decision through the kernel policy network.
func BenchmarkServeDecide(b *testing.B) { benchServeDecide(b, "servedecide", "", 1, 0) }

// BenchmarkServeDecideBatched pipelines 16 queue states per request — the
// batched-throughput shape the load generator uses.
func BenchmarkServeDecideBatched(b *testing.B) { benchServeDecide(b, "servedecide_batched", "", 16, 0) }

// BenchmarkServeDecideHeuristic serves SJF instead of the network,
// isolating the HTTP+parse overhead from the forward pass.
func BenchmarkServeDecideHeuristic(b *testing.B) {
	benchServeDecide(b, "servedecide_heuristic", "SJF", 1, 0)
}

// BenchmarkServeDecideCached is BenchmarkServeDecide with the decision
// cache in front of the network: after the first request warms the entry,
// every decision is a cache hit — the steady state of a fleet whose
// clusters re-post unchanged queues between arrivals. The gap to the
// servedecide baseline is the forward pass the cache saves.
func BenchmarkServeDecideCached(b *testing.B) { benchServeDecide(b, "servecache", "", 1, 1024) }

// BenchmarkServePlace is the fleet write path over HTTP: one /place per op
// against an 8-shard kernel-engine daemon with the fairness plugin on
// (FairWeight 1), so every request runs 8 engine scorings, folds its
// completed records and, with checkpointing on, appends and fsyncs one
// WAL record. Bodies are the canonical compact form a cluster agent
// posts: a client id, a monotonic batch_seq, the arriving job and 8
// cluster states of 0–32 queued jobs, a quarter of them carrying 1–3
// completed records. placements/s and allocs/op are the headline numbers.
func BenchmarkServePlace(b *testing.B) {
	b.Run("checkpoint=off", func(b *testing.B) { benchServePlace(b, "serveplace", false) })
	b.Run("checkpoint=on", func(b *testing.B) { benchServePlace(b, "serveplace_wal", true) })
}

func benchServePlace(b *testing.B, snapName string, checkpoint bool) {
	sizes := []int{256, 256, 128, 128, 128, 64, 64, 64}
	cfg := serve.Config{FairWeight: 1}
	if checkpoint {
		cfg.CheckpointDir = b.TempDir()
	}
	for i, procs := range sizes {
		pol, err := nn.NewPolicy(rand.New(rand.NewSource(int64(7+i))), "kernel", sim.DefaultMaxObserve, sim.JobFeatures)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := serve.NewPolicyEngine(pol)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Shards = append(cfg.Shards, serve.ShardConfig{Name: fmt.Sprintf("c%d", i), Procs: procs, Engine: eng})
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	// A rotation of pre-encoded arrivals and cluster lists; each request
	// splices its own batch_seq in front so no batch is a replay.
	tr := trace.Preset("Lublin-1", 2048, 21)
	rng := rand.New(rand.NewSource(21))
	row := func(b []byte, j *job.Job, procs int) []byte {
		// Whole seconds, as SWF records them.
		return fmt.Appendf(b, "[%g,%g,%d,%d]", math.Round(j.SubmitTime),
			math.Max(1, math.Round(j.RequestedTime)), procs, j.UserID)
	}
	const rotation = 64
	arrivals := make([][]byte, rotation)
	clusters := make([][]byte, rotation)
	for k := range arrivals {
		j := tr.SampleQueue(rng, 1)[0]
		arrivals[k] = row(nil, j, min(j.RequestedProcs, sizes[0]))
		var c []byte
		for i, procs := range sizes {
			if i > 0 {
				c = append(c, ',')
			}
			c = fmt.Appendf(c, `{"name":"c%d","now":%d,"free_procs":%d,"total_procs":%d,"jobs":[`,
				i, 7200, rng.Intn(procs+1), procs)
			for q, qj := range tr.SampleQueue(rng, rng.Intn(33)) {
				if q > 0 {
					c = append(c, ',')
				}
				c = row(c, qj, min(qj.RequestedProcs, procs))
			}
			c = append(c, ']')
			if rng.Float64() < 0.25 {
				c = append(c, `,"completed":[`...)
				for d, nd := 0, 1+rng.Intn(3); d < nd; d++ {
					if d > 0 {
						c = append(c, ',')
					}
					c = fmt.Appendf(c, "[%d,%d,%d]", rng.Intn(64), rng.Intn(7200), 1+rng.Intn(3600))
				}
				c = append(c, ']')
			}
			c = append(c, '}')
		}
		clusters[k] = c
	}
	client := ts.Client()
	url := ts.URL + "/place"
	var body []byte
	buf := make([]byte, 4096)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body = append(body[:0], `{"client":"bench","batch_seq":`...)
		body = strconv.AppendInt(body, int64(i), 10)
		body = append(body, `,"job":`...)
		body = append(body, arrivals[i%rotation]...)
		body = append(body, `,"clusters":[`...)
		body = append(body, clusters[i%rotation]...)
		body = append(body, "]}"...)
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := resp.Body.Read(buf); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.StopTimer()
	rate := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "placements/s")
	writeBenchSnapshot(b, snapName, map[string]float64{"placements_per_s": rate})
}
