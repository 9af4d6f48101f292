package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/obs"
	"rlsched/internal/sim"
)

// Fleet mode: the daemon shards one Engine per cluster and answers two
// extra questions. "/v1/decide?cluster=NAME" asks a specific shard's
// policy which queued job runs next — serving sharded by cluster.
// "POST /place" asks the placement layer which cluster an arriving job
// should be routed to: the request carries the job plus each cluster's
// current queue state (the daemon is stateless, like the decision
// endpoint), and the answer comes from a fleet filter/score pipeline whose
// RL-informed plugin scores the job's marginal impact with each shard's
// own serving engine.

// ShardConfig declares one fleet member the daemon serves.
type ShardConfig struct {
	// Name identifies the cluster in /place, /decide?cluster= and
	// /metrics labels.
	Name string
	// Procs is the cluster size (placement rejects cluster states that
	// disagree, catching misrouted reports).
	Procs int
	// Engine overrides ModelPath/PolicyName (test hook), which otherwise
	// load exactly like the daemon's base engine.
	Engine     Engine
	ModelPath  string
	PolicyName string
}

// shard is one served cluster: its own batcher (so /decide load on one
// cluster never queues behind another) behind its own hot-swappable
// engine.
type shard struct {
	name    string
	procs   int
	batcher *Batcher
}

// newShards builds the shard set and the placement router.
func (s *Server) initFleet(cfg Config) error {
	s.migrateMargin = -1
	if len(cfg.Shards) == 0 {
		if cfg.PlaceRouter != "" {
			return fmt.Errorf("serve: place router %q needs fleet shards", cfg.PlaceRouter)
		}
		if cfg.Migrate {
			return fmt.Errorf("serve: -migrate needs fleet shards")
		}
		if cfg.FairWeight != 0 {
			return fmt.Errorf("serve: fairness placement needs fleet shards")
		}
		return nil
	}
	if cfg.Migrate {
		// Negated comparison so NaN is rejected too (a NaN margin would
		// silently answer migrate:false forever). 0 is meaningful — no
		// hysteresis, any strict improvement clears the margin — though
		// the drained-destination gate still applies; the 0.25 default
		// lives in the rlservd flag, not here.
		if !(cfg.MigrateMargin >= 0) {
			return fmt.Errorf("serve: migrate margin must be non-negative, got %g", cfg.MigrateMargin)
		}
		s.migrateMargin = cfg.MigrateMargin
	}
	names := make([]string, 0, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		if sc.Name == "" {
			return fmt.Errorf("serve: shard %d needs a name", i)
		}
		if sc.Procs <= 0 {
			return fmt.Errorf("serve: shard %q needs a positive processor count", sc.Name)
		}
		if _, dup := s.shardByName(sc.Name); dup != nil {
			return fmt.Errorf("serve: duplicate shard name %q", sc.Name)
		}
		eng := sc.Engine
		if eng == nil {
			var err error
			eng, err = LoadEngine(sc.ModelPath, sc.PolicyName)
			if err != nil {
				return fmt.Errorf("serve: shard %q: %w", sc.Name, err)
			}
		}
		s.shards = append(s.shards, &shard{
			name:  sc.Name,
			procs: sc.Procs,
			batcher: NewBatcher(eng, BatcherConfig{
				Workers:  cfg.Workers,
				MaxBatch: cfg.MaxBatch,
				OnBatch:  func(states int) { s.metrics.BatchSize.Observe(float64(states)) },
			}),
		})
		names = append(names, sc.Name)
	}
	s.drained = make([]atomic.Bool, len(s.shards))
	s.metrics.RegisterPlaceClusters(names)

	router := cfg.PlaceRouter
	if router == "" {
		router = "engine"
	}
	switch router {
	case "engine":
		// The RL-informed default: each shard's own policy scores the
		// job against the backlog it would join, with a queue-wait
		// prior as tie-breaker.
		s.placer = fleet.NewPipeline("engine-scored",
			[]fleet.Filter{fleet.CapacityFilter{}},
			[]fleet.WeightedScorer{
				{Scorer: &shardEngineScorer{s: s}, Weight: 2},
				{Scorer: fleet.QueueWait{}, Weight: 1},
			})
	case "least-loaded":
		s.placer = fleet.LeastLoadedPipeline()
	case "binpack":
		s.placer = fleet.BinpackPipeline()
	default:
		return fmt.Errorf("serve: unknown place router %q (engine|least-loaded|binpack)", router)
	}
	if !(cfg.FairWeight >= 0) {
		return fmt.Errorf("serve: fairness weight must be non-negative, got %g", cfg.FairWeight)
	}
	if !(cfg.FairWindow >= 0) {
		return fmt.Errorf("serve: fairness window must be non-negative, got %g", cfg.FairWindow)
	}
	if cfg.FairWindow > 0 && cfg.FairWeight == 0 {
		return fmt.Errorf("serve: -fair-window needs -fair-weight > 0")
	}
	if cfg.FairWeight > 0 {
		// The stateful per-user fairness plugin rides on the selected
		// pipeline. Its state grows from the completed-job records clusters
		// post with /place — the serving twin of the fleet simulator's
		// completion feed — and is exported as rlserv_fairness_score.
		s.fairness = fleet.NewFairnessScorer(fleet.FairnessConfig{DecayWindow: cfg.FairWindow})
		s.placer.Scorers = append(s.placer.Scorers,
			fleet.WeightedScorer{Scorer: s.fairness, Weight: cfg.FairWeight})
	}
	return nil
}

func (s *Server) shardByName(name string) (int, *shard) {
	for i, sh := range s.shards {
		if sh.name == name {
			return i, sh
		}
	}
	return -1, nil
}

// readBody reads a request body up to the configured cap into buf,
// writing the 4xx itself and reporting ok=false on failure.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) (body []byte, ok bool) {
	body, err := readAllInto(buf, io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return body, false
	}
	if int64(len(body)) > s.maxBody {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: body over %d bytes", s.maxBody))
		return body, false
	}
	return body, true
}

// shardEngineScorer adapts the fleet Scorer interface onto the daemon's
// per-cluster engines: candidate i is scored by shard i's currently
// served engine. The score is the log-softmax of the new job's engine
// score within the queue it would join — the engine's (log) probability
// of running the job *next* on that cluster. An idle cluster scores 0
// (certainty, the best possible placement); a cluster whose backlog would
// bury the job scores deeply negative. The softmax makes heterogeneous
// engines (logits vs negated heuristic priorities) comparable after the
// pipeline's per-plugin normalization, mirroring fleet.RLScorer.
type shardEngineScorer struct{ s *Server }

// Name implements fleet.Scorer.
func (*shardEngineScorer) Name() string { return "shard-engine" }

// scoreScratch is one Score call's reusable queue state: every /place
// scores each posted cluster, so the per-candidate state is pooled.
type scoreScratch struct {
	jobs   []*job.Job
	st     QueueState
	states [1]*QueueState
	one    [1]Decision
	key    []byte
}

var scoreScratchPool = sync.Pool{New: func() interface{} { return new(scoreScratch) }}

// Score implements fleet.Scorer.
func (sc *shardEngineScorer) Score(j *job.Job, cands []*fleet.Candidate, out []float64) {
	scr := scoreScratchPool.Get().(*scoreScratch)
	defer scoreScratchPool.Put(scr)
	cache := sc.s.cache
	for i, c := range cands {
		eng := sc.s.shards[c.Index].batcher.Engine()
		vis := c.Visible
		if max := eng.MaxJobs(); max > 0 && len(vis) > max-1 {
			vis = vis[:max-1] // keep a slot for the candidate job
		}
		scr.jobs = append(append(scr.jobs[:0], vis...), j)
		scr.st = QueueState{
			Jobs:       scr.jobs,
			Now:        c.Now,
			View:       c.View,
			QueueLen:   c.Pending + 1,
			WantScores: true,
		}
		scr.states[0] = &scr.st
		// The same (queue, job) pair is re-scored on every /place a
		// cluster's queue sits still for, so this inner decision shares
		// the /v1/decide cache — keyed by the shard whose engine answers.
		if cache != nil {
			scr.key = cache.appendCacheKey(scr.key[:0], c.Index, &scr.st)
			key := string(scr.key)
			if e, ok := cache.get(key); ok {
				out[i] = fleet.LastLogSoftmax(e.dec.Scores)
				continue
			}
			eng.DecideBatch(scr.states[:], scr.one[:])
			cache.put(key, cacheEntry{dec: scr.one[0], policy: eng.Name()})
			out[i] = fleet.LastLogSoftmax(scr.one[0].Scores)
			continue
		}
		eng.DecideBatch(scr.states[:], scr.one[:])
		out[i] = fleet.LastLogSoftmax(scr.one[0].Scores)
	}
}

func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST only"))
		return
	}
	if len(s.shards) == 0 {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: not running in fleet mode"))
		return
	}
	start := time.Now()
	pb := placeBufPool.Get().(*placeBuf)
	defer placeBufPool.Put(pb)
	body, ok := s.readBody(w, r, pb.body[:0])
	pb.body = body
	if !ok {
		return
	}
	if err := pb.parse(body, false); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad place request: %w", err))
		return
	}
	j := &pb.job
	if j.RequestedProcs <= 0 || j.RequestedTime <= 0 {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: job needs positive requested_time and requested_procs"))
		return
	}
	if len(pb.clusters) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: place request carries no clusters"))
		return
	}
	var seq *int64
	if pb.hasSeq {
		if pb.client == "" {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: batch_seq needs a client id"))
			return
		}
		if pb.seq < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: batch_seq must be non-negative, got %d", pb.seq))
			return
		}
		seq = &pb.seq
	}

	cands, err := s.placeCandidates(pb)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Cordoned shards are off the placement menu but stay in cands: their
	// posted states (and completions) are real, only the destination is
	// closed. With nothing drained, active IS cands — the common path
	// allocates and branches exactly as before.
	active := cands
	for _, c := range cands {
		if s.drained[c.Index].Load() {
			active = make([]*fleet.Candidate, 0, len(cands))
			for _, c := range cands {
				if !s.drained[c.Index].Load() {
					active = append(active, c)
				}
			}
			break
		}
	}
	if len(active) == 0 {
		s.fail(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: every posted cluster is drained"))
		return
	}
	deduped := false
	if s.fairness != nil {
		// The tracker is persistent state: a batch that is half-folded
		// when the request errors out would be double-counted when the
		// client repairs and re-posts it. So EVERY rejection — bad
		// records (400) and infeasible jobs (422, pre-checked here
		// against the pipeline's own filters, which is exactly the
		// PlaceScored < 0 condition) — must fire before any Observe.
		feasible := false
	next:
		for _, c := range active {
			for _, flt := range s.placer.Filters {
				if !flt.Feasible(j, c) {
					continue next
				}
			}
			feasible = true
			break
		}
		if !feasible {
			s.fail(w, http.StatusUnprocessableEntity,
				fmt.Errorf("serve: job (%d procs) fits no cluster", j.RequestedProcs))
			return
		}
		for i := range pb.clusters {
			pc := &pb.clusters[i]
			for k, wd := range pb.done[pc.done[0]:pc.done[1]] {
				if wd.Wait < 0 || wd.Run < 0 {
					s.fail(w, http.StatusBadRequest,
						fmt.Errorf("serve: cluster %q completed job %d needs non-negative wait and run_time", pc.name, k))
					return
				}
			}
		}
		// Fold them in before scoring, so the placement below already sees
		// them. The durability layer owns the fold: WAL append (when
		// configured) strictly before Observe, and the batch_seq dedup
		// check strictly before both — a replayed batch changes nothing.
		pb.wcs, pb.idxs = pb.wcs[:0], pb.idxs[:0]
		for i := range pb.clusters {
			pc := &pb.clusters[i]
			if pc.done[0] == pc.done[1] {
				continue
			}
			pb.wcs = append(pb.wcs, walCluster{Name: cands[i].Name, Done: pb.done[pc.done[0]:pc.done[1]]})
			pb.idxs = append(pb.idxs, cands[i].Index)
		}
		applied, err := s.durable.commitBatch(pb.client, seq, pb.wcs, pb.idxs)
		if err != nil {
			// The WAL refused the batch; acking it would promise a
			// durability the disk did not deliver.
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		deduped = !applied
	}
	// ?explain=1 asks for the per-plugin score table in the response; the
	// decision ring wants the same trace for /debug/decisions. Either way
	// the pick is identical to the plain scored path (pinned by tests).
	wantExplain := r.URL.Query().Get("explain") == "1"
	var ex *obs.Explain
	if wantExplain || s.ring != nil {
		ex = new(obs.Explain)
	}
	scores := pb.scoreBuf(len(active))
	pick := s.placer.PlaceExplained(j, active, scores, ex)
	if pick < 0 {
		s.fail(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: job (%d procs) fits no cluster", j.RequestedProcs))
		return
	}
	if s.ring != nil {
		s.ring.Placement(&obs.PlacementDecision{
			Time:       time.Since(s.start).Seconds(),
			Router:     s.placer.Name(),
			Job:        obs.Ref(j),
			Winner:     active[pick].Index,
			Cluster:    active[pick].Name,
			TieBreak:   ex.TieBreak,
			Candidates: ex.Candidates,
		})
	}

	resp := append(pb.resp[:0], `{"cluster":`...)
	resp = strconv.AppendQuote(resp, active[pick].Name)
	resp = append(resp, `,"shard":`...)
	resp = strconv.AppendInt(resp, int64(active[pick].Index), 10)
	resp = append(resp, `,"router":`...)
	resp = strconv.AppendQuote(resp, s.placer.Name())
	if deduped {
		// The completion batch was a replay; the placement answer stands
		// but nothing was (re-)absorbed.
		resp = append(resp, `,"deduped":true`...)
	}
	if s.fairness != nil {
		// Per-user state exposure: the tracked service of the job's user
		// against the all-user mean, as the fairness plugin saw it.
		userMean, jobs, fleetMean := s.fairness.UserState(j.UserID)
		resp = append(resp, `,"fairness":{"user_mean_bsld":`...)
		resp = strconv.AppendFloat(resp, userMean, 'g', 6, 64)
		resp = append(resp, `,"user_jobs":`...)
		resp = strconv.AppendInt(resp, int64(jobs), 10)
		resp = append(resp, `,"fleet_mean_bsld":`...)
		resp = strconv.AppendFloat(resp, fleetMean, 'g', 6, 64)
		resp = append(resp, '}')
	}
	resp = append(resp, `,"scores":`...)
	resp = appendScoresJSON(resp, active, scores)
	if wantExplain {
		// The full pipeline trace: per candidate, each plugin's weight and
		// normalized score plus filter verdicts — json.Marshal here, off
		// the default fast path.
		exJSON, err := json.Marshal(ex)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		resp = append(resp, `,"explain":`...)
		resp = append(resp, exJSON...)
	}
	resp = append(resp, '}', '\n')
	pb.resp = resp
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)

	s.metrics.CountPlacement(active[pick].Index)
	s.metrics.PlaceLatency.ObserveDuration(time.Since(start))
	if s.slo != nil {
		s.slo.observe("/place", time.Since(start))
	}
}

// appendScoresJSON appends the {"name":score,...} object covering every
// unfiltered (non-NaN) candidate — the shared tail of the /place and
// /migrate responses.
func appendScoresJSON(buf []byte, cands []*fleet.Candidate, scores []float64) []byte {
	buf = append(buf, '{')
	first := true
	for i, c := range cands {
		if scores[i] != scores[i] { // NaN: filtered out
			continue
		}
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = strconv.AppendQuote(buf, c.Name)
		buf = append(buf, ':')
		buf = strconv.AppendFloat(buf, scores[i], 'g', 6, 64)
	}
	return append(buf, '}')
}

// handleMigrate is the serving twin of the fleet migration controller's
// per-job decision: re-score the job through the placement pipeline and
// recommend a move only when the best alternative beats the incumbent by
// the configured hysteresis margin AND is drained enough to start the job
// immediately (free capacity, empty queue) — the same
// stranded-job-rescue gate fleet.HysteresisMigration applies. The daemon
// is stateless: it recommends; the caller moves.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: POST only"))
		return
	}
	if len(s.shards) == 0 || s.migrateMargin < 0 {
		s.fail(w, http.StatusNotFound, fmt.Errorf("serve: migration endpoint not enabled (fleet mode with -migrate)"))
		return
	}
	start := time.Now()
	pb := placeBufPool.Get().(*placeBuf)
	defer placeBufPool.Put(pb)
	body, ok := s.readBody(w, r, pb.body[:0])
	pb.body = body
	if !ok {
		return
	}
	if err := pb.parse(body, true); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("serve: bad migrate request: %w", err))
		return
	}
	j := &pb.job
	if j.RequestedProcs <= 0 || j.RequestedTime <= 0 {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: job needs positive requested_time and requested_procs"))
		return
	}
	cands, err := s.placeCandidates(pb)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Drained shards cannot be migration destinations, but the job's
	// current cluster stays in the set — migrating OFF a cordoned member
	// is the endpoint's whole purpose during a drain.
	for _, c := range cands {
		if c.Name != pb.from && s.drained[c.Index].Load() {
			act := make([]*fleet.Candidate, 0, len(cands))
			for _, c := range cands {
				if c.Name == pb.from || !s.drained[c.Index].Load() {
					act = append(act, c)
				}
			}
			cands = act
			break
		}
	}
	from := -1
	for i, c := range cands {
		if c.Name == pb.from {
			from = i
		}
	}
	if from < 0 {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("serve: current cluster %q missing from posted states", pb.from))
		return
	}

	scores := pb.scoreBuf(len(cands))
	best := s.placer.PlaceScored(j, cands, scores)
	move := false
	dst := from
	if best >= 0 && best != from {
		cur := scores[from]
		drained := cands[best].Pending == 0 &&
			cands[best].View.FreeProcs >= j.RequestedProcs
		if drained && (cur != cur || scores[best]-cur > s.migrateMargin) {
			move = true
			dst = best
		}
	}

	resp := append(pb.resp[:0], `{"migrate":`...)
	resp = strconv.AppendBool(resp, move)
	resp = append(resp, `,"cluster":`...)
	resp = strconv.AppendQuote(resp, cands[dst].Name)
	resp = append(resp, `,"from":`...)
	resp = strconv.AppendQuote(resp, cands[from].Name)
	if cur, bst := scores[from], scores[dst]; cur == cur && bst == bst {
		resp = append(resp, `,"margin":`...)
		resp = strconv.AppendFloat(resp, bst-cur, 'g', 6, 64)
	}
	resp = append(resp, `,"router":`...)
	resp = strconv.AppendQuote(resp, s.placer.Name())
	resp = append(resp, `,"scores":`...)
	resp = appendScoresJSON(resp, cands, scores)
	resp = append(resp, '}', '\n')
	pb.resp = resp
	w.Header().Set("Content-Type", "application/json")
	w.Write(resp)

	s.metrics.MigrateChecksTotal.Add(1)
	s.metrics.MigrateLatency.ObserveDuration(time.Since(start))
	if s.slo != nil {
		s.slo.observe("/migrate", time.Since(start))
	}
	if move {
		s.metrics.CountMigration(cands[dst].Index)
	}
}

// placeCandidates turns the posted cluster states into fleet candidates,
// validating each against the registered shards. The candidates and
// their visible queues live in pb.
func (s *Server) placeCandidates(pb *placeBuf) ([]*fleet.Candidate, error) {
	// Pointers are taken only now: the arena may have regrown while
	// parsing.
	pb.jobPtr = pb.jobPtr[:0]
	for i := range pb.jobs {
		pb.jobPtr = append(pb.jobPtr, &pb.jobs[i])
	}
	if cap(pb.seen) < len(s.shards) {
		pb.seen = make([]bool, len(s.shards))
	}
	pb.seen = pb.seen[:len(s.shards)]
	clear(pb.seen)
	pb.cands = pb.cands[:0]
	for i := range pb.clusters {
		pc := &pb.clusters[i]
		idx, sh := s.shardByName(string(pc.name))
		if sh == nil {
			return nil, fmt.Errorf("serve: unknown cluster %q", pc.name)
		}
		if pb.seen[idx] {
			return nil, fmt.Errorf("serve: cluster %q listed twice", pc.name)
		}
		pb.seen[idx] = true
		if pc.total != sh.procs {
			return nil, fmt.Errorf("serve: cluster %q reports %d procs, shard has %d",
				pc.name, pc.total, sh.procs)
		}
		if pc.free < 0 || pc.free > pc.total {
			return nil, fmt.Errorf("serve: cluster %q free_procs out of range", pc.name)
		}
		start, end := pc.jobs[0], pc.jobs[1]
		pendingWork := 0.0
		for k, jb := range pb.jobs[start:end] {
			if jb.RequestedProcs <= 0 || jb.RequestedTime <= 0 {
				return nil, fmt.Errorf("serve: cluster %q job %d needs positive requested_time and requested_procs",
					pc.name, k)
			}
			pendingWork += jb.RequestedTime * float64(jb.RequestedProcs)
		}
		pb.cands = append(pb.cands, fleet.Candidate{
			Index:       idx,
			Name:        sh.name,
			Now:         pc.now,
			View:        sim.ClusterView{FreeProcs: pc.free, TotalProcs: pc.total},
			Visible:     pb.jobPtr[start:end:end],
			Pending:     max(pc.queueLen, end-start),
			PendingWork: pendingWork,
			// RunningWork is unknowable from a posted snapshot; the
			// queue signals above carry the load information.
		})
	}
	pb.candPtr = pb.candPtr[:0]
	for i := range pb.cands {
		pb.candPtr = append(pb.candPtr, &pb.cands[i])
	}
	return pb.candPtr, nil
}
