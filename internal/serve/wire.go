package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"rlsched/internal/fleet"
	"rlsched/internal/job"
	"rlsched/internal/sim"
)

// Wire format. A decision request is either one queue state
//
//	{"now": 0, "free_procs": 96, "total_procs": 128, "queue_len": 200,
//	 "scores": true,
//	 "jobs": [{"id": 7, "submit_time": -30, "requested_time": 3600,
//	           "requested_procs": 4, "user_id": 2}, ...]}
//
// or a batch {"states": [state, state, ...]} answered in order. Job rows
// may equivalently be compact arrays
//
//	[submit_time, requested_time, requested_procs, user_id?, id?]
//
// which is what the load generator emits: canonical compact bodies bypass
// encoding/json entirely via a hand-rolled parser (~4× faster on the
// 1-core CI box, and the decode is the biggest single cost of a decision).
// Any body the fast parser rejects falls back to encoding/json, so every
// valid JSON request is accepted either way.
//
// Fleet mode's /place body is, canonically,
//
//	{"client": "agent-3", "batch_seq": 41,
//	 "job": [submit_time, requested_time, requested_procs, user_id?, id?],
//	 "clusters": [{"name": "c0", "now": 7200, "free_procs": 96,
//	               "total_procs": 128, "queue_len": 40,
//	               "jobs": [[submit, req_time, procs, user?, id?], ...],
//	               "completed": [[user_id, wait, run_time], ...]}, ...]}
//
// with client/batch_seq (the completion batch's dedup identity), queue_len
// and completed optional; /migrate carries "from": "c0" instead of
// client/batch_seq. The same fast parser decodes it into a pooled
// placeBuf. It is stricter than the decide parser: JSON's number grammar,
// integer fields as integers (batch_seq exact up to 15 digits), each key
// at most once, no string escapes. Everything else — object rows
// ({"user_id": u, "wait": w, "run_time": r} for completed records),
// escapes, unknown keys, a longer or fractional batch_seq — takes the
// encoding/json path, which fills the same placeBuf.

// wireJob decodes a job from either object or compact-array form.
type wireJob struct {
	ID       int     `json:"id"`
	Submit   float64 `json:"submit_time"`
	ReqTime  float64 `json:"requested_time"`
	ReqProcs int     `json:"requested_procs"`
	UserID   int     `json:"user_id"`
}

// UnmarshalJSON accepts {"submit_time": ...} objects and
// [submit, req_time, procs, user?, id?] arrays.
func (w *wireJob) UnmarshalJSON(b []byte) error {
	w.UserID = -1
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			var row []float64
			if err := json.Unmarshal(b, &row); err != nil {
				return err
			}
			if len(row) < 3 || len(row) > 5 {
				return fmt.Errorf("serve: compact job row wants 3-5 values, got %d", len(row))
			}
			w.Submit, w.ReqTime, w.ReqProcs = row[0], row[1], int(row[2])
			if len(row) > 3 {
				w.UserID = int(row[3])
			}
			if len(row) > 4 {
				w.ID = int(row[4])
			}
			return nil
		default:
			type alias wireJob
			a := alias(*w)
			if err := json.Unmarshal(b, &a); err != nil {
				return err
			}
			*w = wireJob(a)
			return nil
		}
	}
	return fmt.Errorf("serve: empty job spec")
}

// toJob converts the wire form to a pending job (scheduling state
// cleared) — the single point all request paths (/v1/decide and /place)
// build jobs through.
func (w *wireJob) toJob() job.Job {
	return job.Job{
		ID:             w.ID,
		SubmitTime:     w.Submit,
		RequestedTime:  w.ReqTime,
		RequestedProcs: w.ReqProcs,
		UserID:         w.UserID,
		StartTime:      -1,
		EndTime:        -1,
	}
}

// wireDone is a completed-job record posted with /place cluster states to
// feed the daemon's per-user fairness tracker (fleet mode with a fairness
// weight): either {"user_id": u, "wait": w, "run_time": r} or a compact
// [user, wait, run] array, both in seconds. The daemon folds each record
// into the posting cluster's per-user bounded-slowdown share before
// scoring the request's job.
type wireDone struct {
	UserID int     `json:"user_id"`
	Wait   float64 `json:"wait"`
	Run    float64 `json:"run_time"`
}

// UnmarshalJSON accepts {"user_id": ...} objects and [user, wait, run]
// arrays.
func (w *wireDone) UnmarshalJSON(b []byte) error {
	w.UserID = -1
	for _, c := range b {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			var row []float64
			if err := json.Unmarshal(b, &row); err != nil {
				return err
			}
			if len(row) != 3 {
				return fmt.Errorf("serve: compact completed row wants 3 values, got %d", len(row))
			}
			w.UserID, w.Wait, w.Run = int(row[0]), row[1], row[2]
			return nil
		default:
			type alias wireDone
			a := alias(*w)
			if err := json.Unmarshal(b, &a); err != nil {
				return err
			}
			*w = wireDone(a)
			return nil
		}
	}
	return fmt.Errorf("serve: empty completed spec")
}

// toJob converts the record into a finished job the fairness tracker can
// observe: submitted at 0, started after Wait, ran for Run.
func (w *wireDone) toJob() job.Job {
	return job.Job{
		UserID:    w.UserID,
		RunTime:   w.Run,
		StartTime: w.Wait,
		EndTime:   w.Wait + w.Run,
	}
}

// wireState is one queue state on the wire.
type wireState struct {
	Now        float64   `json:"now"`
	FreeProcs  int       `json:"free_procs"`
	TotalProcs int       `json:"total_procs"`
	QueueLen   int       `json:"queue_len"`
	Scores     bool      `json:"scores"`
	Jobs       []wireJob `json:"jobs"`
}

// wireRequest is the full request: inline single state or a batch.
type wireRequest struct {
	wireState
	States []wireState `json:"states"`
}

// reqBuf holds every allocation a request needs; pooled across requests.
// Job pointers handed to engines index into the arena, so a reqBuf must
// not be recycled until its decisions have been copied out.
type reqBuf struct {
	body   []byte
	resp   []byte
	arena  []job.Job
	jobPtr []*job.Job
	states []QueueState
	stPtr  []*QueueState
	ranges []int // 2 ints per state: arena [start, end)
	batch  bool  // request used the states form
}

// reqBufPool starts each buffer small; its arena grows to the largest
// request it serves. The pool drops buffers that sit unused through two
// garbage collections, so at a high request rate it makes new ones
// several times a second: a large up-front arena would be allocated and
// kept live mostly unfilled.
var reqBufPool = sync.Pool{New: func() interface{} {
	return &reqBuf{
		body: make([]byte, 0, 4<<10),
		resp: make([]byte, 0, 1<<10),
	}
}}

func (rb *reqBuf) reset() {
	rb.body = rb.body[:0]
	rb.resp = rb.resp[:0]
	rb.arena = rb.arena[:0]
	rb.jobPtr = rb.jobPtr[:0]
	rb.states = rb.states[:0]
	rb.stPtr = rb.stPtr[:0]
	rb.ranges = rb.ranges[:0]
	rb.batch = false
}

// addState appends a parsed state whose jobs occupy arena[start:end).
func (rb *reqBuf) addState(st QueueState, start, end int) {
	rb.states = append(rb.states, st)
	rb.ranges = append(rb.ranges, start, end)
}

// finalize materializes the job pointer slices once the arena is stable
// (the arena may regrow while parsing, so pointers are taken only here).
func (rb *reqBuf) finalize() []*QueueState {
	if cap(rb.jobPtr) < len(rb.arena) {
		rb.jobPtr = make([]*job.Job, len(rb.arena))
	}
	rb.jobPtr = rb.jobPtr[:len(rb.arena)]
	for i := range rb.arena {
		rb.jobPtr[i] = &rb.arena[i]
	}
	for i := range rb.states {
		start, end := rb.ranges[2*i], rb.ranges[2*i+1]
		rb.states[i].Jobs = rb.jobPtr[start:end:end]
		rb.stPtr = append(rb.stPtr, &rb.states[i])
	}
	return rb.stPtr
}

// parseRequest decodes body into rb: fast path first, encoding/json as
// the catch-all.
func (rb *reqBuf) parseRequest(body []byte) error {
	if err := rb.parseFast(body); err == nil {
		return nil
	}
	return rb.parseSlow(body)
}

// parseSlow is the encoding/json catch-all path. It accepts every valid
// JSON request; the fast parser accepts a superset of the canonical
// compact bodies and must agree with this path on anything both accept
// (pinned by the FuzzParseRequest differential).
func (rb *reqBuf) parseSlow(body []byte) error {
	rb.arena = rb.arena[:0]
	rb.states = rb.states[:0]
	rb.ranges = rb.ranges[:0]
	var req wireRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("serve: bad request: %w", err)
	}
	rb.batch = len(req.States) > 0
	if !rb.batch {
		rb.addWireState(&req.wireState)
		return nil
	}
	for i := range req.States {
		rb.addWireState(&req.States[i])
	}
	return nil
}

func (rb *reqBuf) addWireState(ws *wireState) {
	start := len(rb.arena)
	for i := range ws.Jobs {
		rb.arena = append(rb.arena, ws.Jobs[i].toJob())
	}
	rb.addState(QueueState{
		Now:        ws.Now,
		View:       sim.ClusterView{FreeProcs: ws.FreeProcs, TotalProcs: ws.TotalProcs},
		QueueLen:   ws.QueueLen,
		WantScores: ws.Scores,
	}, start, len(rb.arena))
}

// placeCluster is one cluster's state in a /place or /migrate request: a
// named queue state. Unlike /v1/decide states, an empty jobs list is
// legal (an idle cluster is the best possible placement). Completed
// carries the jobs the cluster finished since its last report — the
// fairness tracker's incremental feed (ignored unless the daemon runs
// with a fairness weight).
type placeCluster struct {
	Name      string     `json:"name"`
	Completed []wireDone `json:"completed"`
	wireState
}

// placeRequest is the /place body. Client and BatchSeq are the optional
// dedup identity of the completed-records batch: a client that tags each
// batch with a monotonically increasing sequence can retry a /place
// request (timeout, 5xx) without double-counting its completions — a
// batch whose seq is not above the client's highest absorbed seq is
// acknowledged but not re-observed.
type placeRequest struct {
	Job      wireJob        `json:"job"`
	Clusters []placeCluster `json:"clusters"`
	Client   string         `json:"client"`
	BatchSeq *int64         `json:"batch_seq"`
}

// migrateRequest is the /migrate body: the queued job, the name of the
// cluster currently holding it, and every cluster's state. Like the
// offline migration controller, the caller reports states as if the job
// were already withdrawn — its current cluster's jobs list must not
// include it, so its own footprint cannot bias the incumbent's score.
type migrateRequest struct {
	Job      wireJob        `json:"job"`
	From     string         `json:"from"`
	Clusters []placeCluster `json:"clusters"`
}

// placeState is one decoded cluster state of a /place or /migrate body;
// its queued jobs and completed records are ranges of the placeBuf
// arenas.
type placeState struct {
	name                  []byte
	now                   float64
	free, total, queueLen int
	jobs, done            [2]int // [start, end) in placeBuf.jobs / .done
}

// placeBuf is the pooled decode of one /place or /migrate body plus the
// per-request scratch the handlers build from it. Both parse paths fill
// the same fields, so everything after the decode — validation, scoring,
// the WAL record, the answer — cannot tell which path ran. Nothing in it
// outlives the request: /place and /migrate score synchronously.
type placeBuf struct {
	body []byte
	resp []byte

	job      job.Job
	client   string
	seq      int64
	hasSeq   bool
	from     string
	clusters []placeState
	jobs     []job.Job  // every cluster's queued jobs, back to back
	done     []wireDone // every cluster's completed records, back to back

	jobPtr  []*job.Job
	cands   []fleet.Candidate
	candPtr []*fleet.Candidate
	seen    []bool // per shard: already posted in this request
	scores  []float64
	wcs     []walCluster
	idxs    []int
}

var placeBufPool = sync.Pool{New: func() interface{} {
	return &placeBuf{
		body: make([]byte, 0, 16<<10),
		resp: make([]byte, 0, 512),
		jobs: make([]job.Job, 0, 256),
	}
}}

// resetDecode clears the decoded request, keeping every buffer.
func (pb *placeBuf) resetDecode() {
	pb.job = (&wireJob{UserID: -1}).toJob()
	pb.client, pb.seq, pb.hasSeq, pb.from = "", 0, false, ""
	pb.clusters = pb.clusters[:0]
	pb.jobs = pb.jobs[:0]
	pb.done = pb.done[:0]
}

// scoreBuf returns pb's score scratch sized for n candidates.
func (pb *placeBuf) scoreBuf(n int) []float64 {
	if cap(pb.scores) < n {
		pb.scores = make([]float64, n)
	}
	pb.scores = pb.scores[:n]
	return pb.scores
}

// forcePlaceJSON sends every /place and /migrate body to parseSlow; the
// parity tests compare the two paths through the live handlers with it.
var forcePlaceJSON atomic.Bool

// parse decodes a /place (migrate false) or /migrate body: fast path
// first, encoding/json as the catch-all. The error is encoding/json's.
func (pb *placeBuf) parse(body []byte, migrate bool) error {
	if !forcePlaceJSON.Load() && pb.parseFast(body, migrate) == nil {
		return nil
	}
	return pb.parseSlow(body, migrate)
}

// parseSlow is the encoding/json catch-all. It accepts every valid JSON
// body; on anything both paths accept, parseFast must produce the same
// fields (pinned by the FuzzParsePlace differential).
func (pb *placeBuf) parseSlow(body []byte, migrate bool) error {
	pb.resetDecode()
	var wj *wireJob
	var clusters []placeCluster
	if migrate {
		var req migrateRequest
		req.Job.UserID = -1
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		wj, clusters, pb.from = &req.Job, req.Clusters, req.From
	} else {
		var req placeRequest
		req.Job.UserID = -1
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		wj, clusters, pb.client = &req.Job, req.Clusters, req.Client
		if req.BatchSeq != nil {
			pb.seq, pb.hasSeq = *req.BatchSeq, true
		}
	}
	pb.job = wj.toJob()
	for i := range clusters {
		pc := &clusters[i]
		c := placeState{
			name:     []byte(pc.Name),
			now:      pc.Now,
			free:     pc.FreeProcs,
			total:    pc.TotalProcs,
			queueLen: pc.QueueLen,
			jobs:     [2]int{len(pb.jobs), len(pb.jobs) + len(pc.Jobs)},
			done:     [2]int{len(pb.done), len(pb.done) + len(pc.Completed)},
		}
		for k := range pc.Jobs {
			pb.jobs = append(pb.jobs, pc.Jobs[k].toJob())
		}
		pb.done = append(pb.done, pc.Completed...)
		pb.clusters = append(pb.clusters, c)
	}
	return nil
}

// validate enforces the request invariants shared by both parse paths.
func (rb *reqBuf) validate() error {
	if len(rb.states) == 0 {
		return fmt.Errorf("serve: request has no states")
	}
	for i := range rb.states {
		st := &rb.states[i]
		start, end := rb.ranges[2*i], rb.ranges[2*i+1]
		if end == start {
			return fmt.Errorf("serve: state %d has no jobs", i)
		}
		if st.View.TotalProcs <= 0 {
			return fmt.Errorf("serve: state %d needs a positive total_procs", i)
		}
		if st.View.FreeProcs < 0 || st.View.FreeProcs > st.View.TotalProcs {
			return fmt.Errorf("serve: state %d free_procs out of range", i)
		}
		for j := start; j < end; j++ {
			jb := &rb.arena[j]
			if jb.RequestedProcs <= 0 || jb.RequestedTime <= 0 {
				return fmt.Errorf("serve: state %d job %d needs positive requested_time and requested_procs",
					i, j-start)
			}
		}
	}
	return nil
}

// appendResponse builds the JSON response. Single-state requests answer
// {"pick": i, "job_id": id, "policy": name}; batches answer
// {"picks": [...], "policy": name}. Scores ride along when asked for.
func (rb *reqBuf) appendResponse(dst []byte, decs []Decision, policy string) []byte {
	dst = append(dst, '{')
	if !rb.batch {
		d := decs[0]
		dst = append(dst, `"pick":`...)
		dst = strconv.AppendInt(dst, int64(d.Pick), 10)
		if id := rb.states[0].Jobs[d.Pick].ID; id != 0 {
			dst = append(dst, `,"job_id":`...)
			dst = strconv.AppendInt(dst, int64(id), 10)
		}
		if d.Scores != nil {
			dst = append(dst, `,"scores":`...)
			dst = appendFloats(dst, d.Scores)
		}
	} else {
		dst = append(dst, `"picks":[`...)
		for i, d := range decs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(d.Pick), 10)
		}
		dst = append(dst, ']')
		if anyScores(decs) {
			dst = append(dst, `,"scores":[`...)
			for i, d := range decs {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = appendFloats(dst, d.Scores)
			}
			dst = append(dst, ']')
		}
	}
	dst = append(dst, `,"policy":`...)
	dst = strconv.AppendQuote(dst, policy)
	dst = append(dst, '}', '\n')
	return dst
}

func anyScores(decs []Decision) bool {
	for _, d := range decs {
		if d.Scores != nil {
			return true
		}
	}
	return false
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', 6, 64)
	}
	return append(dst, ']')
}
