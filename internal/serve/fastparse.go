package serve

import (
	"fmt"
	"math"
	"strconv"

	"rlsched/internal/job"
	"rlsched/internal/sim"
)

// The fast parser handles the canonical compact request emitted by the
// load generator and other high-rate clients: objects with the documented
// keys, numbers, booleans, jobs as arrays of numbers and, in /place and
// /migrate bodies, plain ASCII strings for names. Anything else — escapes,
// object job rows, unknown keys — makes it bail with an error and the
// caller retries with encoding/json. Bailing is cheap (no allocation
// happens before the first incompatibility), so the fallback costs
// nothing on the slow path and the fast path skips all of encoding/json's
// reflection.

var errFastParse = fmt.Errorf("serve: not a canonical compact request")

type fastParser struct {
	b []byte
	i int
}

func (p *fastParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *fastParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a JSON string with no escapes and only printable ASCII,
// returning a view of its bytes in the body. Escapes, control bytes and
// non-ASCII (which encoding/json validates and may rewrite) bail.
func (p *fastParser) str() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// key parses a JSON object key and its colon.
func (p *fastParser) key() ([]byte, bool) {
	k, ok := p.str()
	return k, ok && p.eat(':')
}

// object parses {"key": value, ...}, calling field with the parser at
// each value; field must consume the value or report false.
func (p *fastParser) object(field func(k []byte) bool) bool {
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		k, ok := p.key()
		if !ok || !field(k) {
			return false
		}
		if p.eat('}') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

// list parses [elem, elem, ...], calling elem once per element.
func (p *fastParser) list(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if p.eat(']') {
			return true
		}
		if !p.eat(',') {
			return false
		}
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// digits advances over a run of decimal digits and returns mant with the
// run appended, sig plus the run's significant digits (from the first
// non-zero digit on), and the run's length.
func (p *fastParser) digits(mant uint64, sig int) (uint64, int, int) {
	b, i := p.b, p.i
	for i < len(b) && isDigit(b[i]) {
		d := uint64(b[i] - '0')
		if mant != 0 || d != 0 {
			sig++
		}
		mant = mant*10 + d
		i++
	}
	n := i - p.i
	p.i = i
	return mant, sig, n
}

// intPart scans JSON's -?(0|[1-9][0-9]*), returning its digits as mant
// with sig significant ones.
func (p *fastParser) intPart() (mant uint64, sig int, neg, ok bool) {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '-' {
		neg = true
		p.i++
	}
	if p.i < len(p.b) && p.b[p.i] == '0' {
		p.i++
		return 0, 0, neg, true
	}
	mant, sig, n := p.digits(0, 0)
	return mant, sig, neg, n > 0
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// number parses one JSON number token. The grammar is JSON's own, so a
// token encoding/json rejects (leading zeros, a bare '.', '+') bails here
// too.
func (p *fastParser) number() (float64, bool) {
	p.ws()
	tok := p.i
	mant, sig, neg, ok := p.intPart()
	if !ok {
		return 0, false
	}
	e10 := 0
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		var n int
		if mant, sig, n = p.digits(mant, sig); n == 0 {
			return 0, false
		}
		e10 = -n
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		eneg := false
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			eneg = p.b[p.i] == '-'
			p.i++
		}
		x, xsig, n := p.digits(0, 0)
		if n == 0 {
			return 0, false
		}
		switch {
		case xsig > 3:
			e10 = math.MaxInt32 // far outside the exact range
		case eneg:
			e10 -= int(x)
		default:
			e10 += int(x)
		}
	}
	// strconv's own exact fast path: up to 15 significant digits and a
	// power of ten up to 1e22 are both exact in float64, so one multiply
	// or divide rounds correctly — the bits ParseFloat returns. SWF times
	// are whole seconds, often printed as 1.234567e+06.
	if sig <= 15 && e10 >= -22 && e10 <= 22 {
		f := float64(mant)
		if neg {
			f = -f
		}
		if e10 > 0 {
			f *= pow10[e10]
		} else if e10 < 0 {
			f /= pow10[-e10]
		}
		return f, true
	}
	v, err := strconv.ParseFloat(string(p.b[tok:p.i]), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// integer parses a JSON integer token of at most 15 digits exactly. A
// fraction, an exponent or a longer token bails: encoding/json decodes
// those into an integer field either exactly or with an error, and the
// fallback reproduces whichever it is.
func (p *fastParser) integer() (int64, bool) {
	mant, sig, neg, ok := p.intPart()
	if !ok || sig > 15 {
		return 0, false
	}
	if p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		return 0, false
	}
	n := int64(mant)
	if neg {
		n = -n
	}
	return n, true
}

func (p *fastParser) boolean() (bool, bool) {
	p.ws()
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "true" {
		p.i += 4
		return true, true
	}
	if len(p.b)-p.i >= 5 && string(p.b[p.i:p.i+5]) == "false" {
		p.i += 5
		return false, true
	}
	return false, false
}

// row parses one [n, n, ...] array of 1..len(dst) numbers into dst.
func (p *fastParser) row(dst []float64) (int, bool) {
	if !p.eat('[') {
		return 0, false
	}
	n := 0
	for {
		v, ok := p.number()
		if !ok || n == len(dst) {
			return 0, false
		}
		dst[n] = v
		n++
		if p.eat(']') {
			return n, true
		}
		if !p.eat(',') {
			return 0, false
		}
	}
}

// jobRow parses one compact [submit, req_time, procs, user?, id?] row
// into a pending job, converting exactly as wireJob does.
func (p *fastParser) jobRow() (job.Job, bool) {
	var row [5]float64
	n, ok := p.row(row[:])
	if !ok || n < 3 {
		return job.Job{}, false
	}
	j := job.Job{
		SubmitTime:     row[0],
		RequestedTime:  row[1],
		RequestedProcs: int(row[2]),
		UserID:         -1,
		StartTime:      -1,
		EndTime:        -1,
	}
	if n > 3 {
		j.UserID = int(row[3])
	}
	if n > 4 {
		j.ID = int(row[4])
	}
	return j, true
}

// jobRows parses [[...],[...],...] onto arena.
func (p *fastParser) jobRows(arena []job.Job) ([]job.Job, bool) {
	ok := p.list(func() bool {
		j, ok := p.jobRow()
		arena = append(arena, j)
		return ok
	})
	return arena, ok
}

// state parses one {...} queue state into the arena/state lists.
func (p *fastParser) state(rb *reqBuf) bool {
	var st QueueState
	start, end := len(rb.arena), len(rb.arena)
	ok := p.object(func(k []byte) bool {
		var ok bool
		var v float64
		switch string(k) {
		case "now":
			st.Now, ok = p.number()
		case "free_procs":
			v, ok = p.number()
			st.View.FreeProcs = int(v)
		case "total_procs":
			v, ok = p.number()
			st.View.TotalProcs = int(v)
		case "queue_len":
			v, ok = p.number()
			st.QueueLen = int(v)
		case "scores":
			st.WantScores, ok = p.boolean()
		case "jobs":
			start = len(rb.arena)
			rb.arena, ok = p.jobRows(rb.arena)
			end = len(rb.arena)
		}
		return ok
	})
	if ok {
		rb.addState(st, start, end)
	}
	return ok
}

// parseFast attempts the canonical compact parse of a full request body.
func (rb *reqBuf) parseFast(body []byte) error {
	p := &fastParser{b: body}
	if !p.eat('{') {
		return errFastParse
	}
	// Batch form: {"states":[{...},...]}
	if k, ok := p.key(); ok && string(k) == "states" {
		if !p.eat('[') {
			return errFastParse
		}
		rb.batch = true
		for {
			if !p.state(rb) {
				return rb.bail()
			}
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return rb.bail()
			}
		}
		if !p.eat('}') {
			return rb.bail()
		}
		if p.ws(); p.i != len(p.b) {
			return rb.bail()
		}
		return nil
	}
	// Single-state form: rewind and parse the whole object as a state.
	p.i = 0
	rb.batch = false
	if !p.state(rb) {
		return rb.bail()
	}
	if p.ws(); p.i != len(p.b) {
		return rb.bail()
	}
	return nil
}

// bail resets partially parsed request state before the slow-path retry.
func (rb *reqBuf) bail() error {
	rb.arena = rb.arena[:0]
	rb.states = rb.states[:0]
	rb.ranges = rb.ranges[:0]
	rb.batch = false
	return errFastParse
}

// keySet records which keys of one object the place parser has seen: a
// repeated key bails, since encoding/json would keep the last value.
type keySet uint8

// first marks bit seen and reports whether it was new.
func (s *keySet) first(bit keySet) bool {
	dup := *s&bit != 0
	*s |= bit
	return !dup
}

// parseFast is the canonical compact decode of a /place body (migrate
// false) or a /migrate body (migrate true); wire.go documents the shape.
// Each key may appear once, in any order; a repeated or unknown key, a
// string needing unescaping, an object row or a batch_seq that is not a
// short integer bails, and parseSlow answers instead.
func (pb *placeBuf) parseFast(body []byte, migrate bool) error {
	pb.resetDecode()
	p := &fastParser{b: body}
	var once keySet
	ok := p.object(func(k []byte) bool {
		var ok bool
		switch string(k) {
		case "job":
			if once.first(1) {
				pb.job, ok = p.jobRow()
			}
		case "clusters":
			ok = once.first(2) && p.list(func() bool { return pb.clusterFast(p) })
		case "client":
			if !migrate && once.first(4) {
				var s []byte
				s, ok = p.str()
				pb.client = string(s)
			}
		case "batch_seq":
			if !migrate && once.first(8) {
				pb.seq, ok = p.integer()
				pb.hasSeq = true
			}
		case "from":
			if migrate && once.first(16) {
				var s []byte
				s, ok = p.str()
				pb.from = string(s)
			}
		}
		return ok
	})
	if p.ws(); !ok || p.i != len(p.b) {
		pb.resetDecode()
		return errFastParse
	}
	return nil
}

// clusterFast parses one posted cluster state onto pb.
func (pb *placeBuf) clusterFast(p *fastParser) bool {
	c := placeState{jobs: [2]int{len(pb.jobs), len(pb.jobs)}, done: [2]int{len(pb.done), len(pb.done)}}
	var once keySet
	ok := p.object(func(k []byte) bool {
		var ok bool
		var v int64
		switch string(k) {
		case "name":
			if once.first(1) {
				c.name, ok = p.str()
			}
		case "now":
			if once.first(2) {
				c.now, ok = p.number()
			}
		case "free_procs":
			if once.first(4) {
				v, ok = p.integer()
				c.free = int(v)
			}
		case "total_procs":
			if once.first(8) {
				v, ok = p.integer()
				c.total = int(v)
			}
		case "queue_len":
			if once.first(16) {
				v, ok = p.integer()
				c.queueLen = int(v)
			}
		case "jobs":
			if once.first(32) {
				pb.jobs, ok = p.jobRows(pb.jobs)
				c.jobs[1] = len(pb.jobs)
			}
		case "completed":
			if once.first(64) {
				ok = p.list(func() bool {
					var row [3]float64
					n, ok := p.row(row[:])
					pb.done = append(pb.done, wireDone{UserID: int(row[0]), Wait: row[1], Run: row[2]})
					return ok && n == 3
				})
				c.done[1] = len(pb.done)
			}
		}
		return ok
	})
	pb.clusters = append(pb.clusters, c)
	return ok
}

// ClusterViewOf is a tiny helper for tests constructing states.
func ClusterViewOf(free, total int) sim.ClusterView {
	return sim.ClusterView{FreeProcs: free, TotalProcs: total}
}
